package wire

import (
	"fmt"
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
	key := values.Get(HTTPKeyParam)
	if key == "" {
		return Request{}, fmt.Errorf("wire: missing %q query parameter", HTTPKeyParam)
	}
	if len(key) > MaxKeyLen {
		return Request{}, ErrKeyTooLong
	}
	req := Request{Key: key, Cost: 1}
	if c := values.Get(HTTPCostParam); c != "" {
		cost, err := strconv.ParseFloat(c, 64)
		if err != nil || cost < 0 {
			return Request{}, fmt.Errorf("wire: invalid cost %q", c)
		}
		req.Cost = cost
	}
	return req, nil
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
