package wire

import (
	"bytes"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
)

// HTTP mapping of the key-value protocol: the QoS client issues
//
//	GET /qos?key=<QoS key>[&cost=<credits>]
//
// and the router answers 200 with body "true" or "false" (paper §II: "The
// QoS response is a boolean value").
const (
	// HTTPPath is the admission endpoint served by the request router.
	HTTPPath = "/qos"
	// HTTPKeyParam is the query parameter carrying the QoS key.
	HTTPKeyParam = "key"
	// HTTPCostParam optionally carries a non-default credit cost.
	HTTPCostParam = "cost"
	// HTTPStatusHeader reports the wire.Status of the decision.
	HTTPStatusHeader = "X-Janus-Status"
	// BodyAllow and BodyDeny are the two legal response bodies.
	BodyAllow = "true"
	BodyDeny  = "false"
)

// FormatHTTPQuery renders the request-URI (path + query) for a request.
func FormatHTTPQuery(req Request) string {
	return string(AppendHTTPQuery(nil, req))
}

// AppendHTTPQuery appends the request-URI to dst: the bytes
// url.Values.Encode produces (parameters in sorted order, so cost
// precedes key), without building the map or the string.
//
//janus:hotpath
func AppendHTTPQuery(dst []byte, req Request) []byte {
	dst = append(dst, HTTPPath+"?"...)
	if req.Cost != 0 && req.Cost != 1 {
		var num [32]byte
		dst = append(dst, HTTPCostParam+"="...)
		dst = appendQueryEscaped(dst, strconv.AppendFloat(num[:0], req.Cost, 'f', -1, 64))
		dst = append(dst, '&')
	}
	dst = append(dst, HTTPKeyParam+"="...)
	return appendQueryEscaped(dst, req.Key)
}

// appendQueryEscaped appends s as url.QueryEscape renders it: unreserved
// bytes verbatim, space as '+', every other byte as %XX.
//
//janus:hotpath
func appendQueryEscaped[S string | []byte](dst []byte, s S) []byte {
	const upperHex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, '+')
		default:
			dst = append(dst, '%', upperHex[c>>4], upperHex[c&15])
		}
	}
	return dst
}

// ParseHTTPQuery extracts a Request from URL query values. A missing cost
// defaults to 1 credit.
func ParseHTTPQuery(values url.Values) (Request, error) {
	return httpRequest(values.Get(HTTPKeyParam), values.Get(HTTPCostParam))
}

// ParseHTTPRawQuery is ParseHTTPQuery on the raw query of a request-URI
// (the bytes after '?'), read by url.ParseQuery's rules without building
// the url.Values: the query splits at '&', '+' and %XX are decoded, a pair
// holding a ';' or a bad escape is skipped, and the first key and the first
// cost count. It allocates only the key's string.
func ParseHTTPRawQuery(query []byte) (Request, error) {
	rawKey, rawCost := queryParams(query)
	var buf [64]byte
	key := string(appendUnescaped(buf[:0], rawKey))
	return httpRequest(key, appendUnescaped(buf[:0], rawCost))
}

// httpRequest validates what an HTTP query carries: a key of 1 to MaxKeyLen
// bytes and, unless it is empty, a cost that parses as a finite number ≥ 0.
// A missing cost is 1 credit.
func httpRequest[C string | []byte](key string, cost C) (Request, error) {
	if key == "" {
		return Request{}, fmt.Errorf("wire: missing %q query parameter", HTTPKeyParam)
	}
	if len(key) > MaxKeyLen {
		return Request{}, ErrKeyTooLong
	}
	req := Request{Key: key, Cost: 1}
	if len(cost) > 0 {
		c, err := strconv.ParseFloat(string(cost), 64)
		if err != nil || c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return Request{}, fmt.Errorf("wire: invalid cost %q", string(cost))
		}
		req.Cost = c
	}
	return req, nil
}

// queryParams returns the raw values of the first key and the first cost
// parameter of a raw query, nil for one that is absent.
//
//janus:hotpath
func queryParams(query []byte) (key, cost []byte) {
	var haveKey, haveCost bool
	for len(query) > 0 && !(haveKey && haveCost) {
		pair := query
		if i := bytes.IndexByte(query, '&'); i >= 0 {
			pair, query = query[:i], query[i+1:]
		} else {
			query = nil
		}
		name, value := pair, pair[len(pair):]
		if i := bytes.IndexByte(pair, '='); i >= 0 {
			name, value = pair[:i], pair[i+1:]
		}
		if bytes.IndexByte(pair, ';') >= 0 || !validEscapes(name) || !validEscapes(value) {
			continue
		}
		switch {
		case !haveKey && unescapedEq(name, HTTPKeyParam):
			key, haveKey = value, true
		case !haveCost && unescapedEq(name, HTTPCostParam):
			cost, haveCost = value, true
		}
	}
	return key, cost
}

// validEscapes reports whether every '%' in b starts a %XX escape.
//
//janus:hotpath
func validEscapes(b []byte) bool {
	for i, c := range b {
		if c == '%' && (i+2 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2])) {
			return false
		}
	}
	return true
}

// unescapedEq reports whether raw, whose escapes are valid, decodes to want.
//
//janus:hotpath
func unescapedEq(raw []byte, want string) bool {
	n := 0
	for i := 0; i < len(raw); i, n = i+1, n+1 {
		c := raw[i]
		switch c {
		case '+':
			c = ' '
		case '%':
			c = unhex(raw[i+1])<<4 | unhex(raw[i+2])
			i += 2
		}
		if n == len(want) || want[n] != c {
			return false
		}
	}
	return n == len(want)
}

// appendUnescaped appends raw, whose escapes are valid, decoded as
// url.QueryUnescape decodes it.
//
//janus:hotpath
func appendUnescaped(dst, raw []byte) []byte {
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch c {
		case '+':
			c = ' '
		case '%':
			c = unhex(raw[i+1])<<4 | unhex(raw[i+2])
			i += 2
		}
		dst = append(dst, c)
	}
	return dst
}

//janus:hotpath
func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

//janus:hotpath
func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}

// FormatHTTPBody renders the response body for an admission decision.
func FormatHTTPBody(allow bool) string {
	if allow {
		return BodyAllow
	}
	return BodyDeny
}

// ParseHTTPBody interprets a response body.
func ParseHTTPBody(body string) (bool, error) {
	switch strings.TrimSpace(body) {
	case BodyAllow:
		return true, nil
	case BodyDeny:
		return false, nil
	default:
		return false, fmt.Errorf("wire: invalid response body %q", body)
	}
}
