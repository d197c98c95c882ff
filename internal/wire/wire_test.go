package wire

import (
	"bytes"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// encodeRequest encodes req into a fresh buffer.
func encodeRequest(req Request) ([]byte, error) { return AppendRequest(nil, req) }

// decodeRequest parses a binary request datagram into a fresh Request.
func decodeRequest(buf []byte) (Request, error) {
	var req Request
	if err := DecodeRequestReuse(buf, &req); err != nil {
		return Request{}, err
	}
	return req, nil
}

// encodeResponse encodes resp into a fresh buffer.
func encodeResponse(resp Response) ([]byte, error) { return AppendResponse(nil, resp) }

// mustEncodeResponse is the test-side shim for the error-returning encoder,
// which encodes every response.
func mustEncodeResponse(resp Response) []byte {
	buf, err := encodeResponse(resp)
	if err != nil {
		panic(err)
	}
	return buf
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 0, Key: "a", Cost: 1},
		{ID: 42, Key: "user-123/db-photos", Cost: 1},
		{ID: math.MaxUint64, Key: strings.Repeat("x", 1000), Cost: 2.5},
		{ID: 7, Key: "k", Cost: 0},
		{ID: 8, Key: "日本語キー", Cost: 0.001},
	}
	for _, want := range cases {
		buf, err := encodeRequest(want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := decodeRequest(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, want := range []Response{
		{ID: 1, Allow: true, Status: StatusOK},
		{ID: 2, Allow: false, Status: StatusDefaultRule},
		{ID: 3, Allow: true, Status: StatusDefaultReply},
		{ID: math.MaxUint64, Allow: false, Status: StatusError},
	} {
		got, err := DecodeResponse(mustEncodeResponse(want))
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(id uint64, key string, costMilli uint32) bool {
		if len(key) > MaxKeyLen {
			key = key[:MaxKeyLen]
		}
		want := Request{ID: id, Key: key, Cost: float64(costMilli) / 1000}
		buf, err := encodeRequest(want)
		if err != nil {
			return false
		}
		got, err := decodeRequest(buf)
		if err != nil || got != want {
			return false
		}
		// The key given as bytes, beside a Key that is ignored, encodes alike.
		other := want
		other.Key = "ignored"
		byKey, err := AppendRequestKey(nil, other, []byte(key))
		return err == nil && bytes.Equal(byKey, buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyTooLong(t *testing.T) {
	_, err := encodeRequest(Request{Key: strings.Repeat("k", MaxKeyLen+1)})
	if err != ErrKeyTooLong {
		t.Fatalf("err = %v, want ErrKeyTooLong", err)
	}
}

func TestNegativeCostClamped(t *testing.T) {
	buf, err := encodeRequest(Request{ID: 1, Key: "k", Cost: -5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRequest(buf)
	if err != nil || got.Cost != 0 {
		t.Fatalf("cost = %v err=%v, want 0", got.Cost, err)
	}
}

func TestHugeCostSaturates(t *testing.T) {
	buf, err := encodeRequest(Request{ID: 1, Key: "k", Cost: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != float64(math.MaxUint32)/1000 {
		t.Fatalf("cost = %v, want saturation", got.Cost)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, _ := encodeRequest(Request{ID: 9, Key: "hello", Cost: 1})

	t.Run("truncated header", func(t *testing.T) {
		if _, err := decodeRequest(good[:10]); err != ErrTruncated {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated key", func(t *testing.T) {
		if _, err := decodeRequest(good[:len(good)-2]); err == nil {
			t.Fatal("no error on truncated key")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 'X'
		if _, err := decodeRequest(b); err != ErrBadMagic {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[1] = 99
		if _, err := decodeRequest(b); err != ErrBadVersion {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("wrong type", func(t *testing.T) {
		if _, err := DecodeResponse(good); err != ErrBadType {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("corrupt payload", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)-1] ^= 0xFF
		if _, err := decodeRequest(b); err != ErrBadChecksum {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("corrupt cost", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[17] ^= 0x01
		if _, err := decodeRequest(b); err != ErrBadChecksum {
			t.Fatalf("err = %v", err)
		}
	})
}

// retiredBitFrame builds by hand what a sender that still batched puts on the
// wire: head as a singleton frame, the retired flag bit 1<<1 set, and a
// second entry appended after head's payload, resealed.
func retiredBitFrame(tb testing.TB, head Request) []byte {
	tb.Helper()
	buf, err := encodeRequest(head)
	if err != nil {
		tb.Fatal(err)
	}
	buf[3] |= 1 << 1
	// Extra-entry count 1; entry id 2, entry flags, cost 1.000, key "b".
	buf = append(buf, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0x03, 0xe8, 0, 1, 'b')
	seal(buf)
	return buf
}

// A decoder ignores the retired bit and the bytes after the payload, so such
// a frame reads as its entry 0.
func TestRetiredBitFrameReadsEntryZero(t *testing.T) {
	for _, head := range []Request{
		{ID: 7, Key: "alice", Cost: 1},
		{ID: 8, Key: "bob", Cost: 2.5, TraceID: 0xfeed},
	} {
		got, err := decodeRequest(retiredBitFrame(t, head))
		if err != nil || got != head {
			t.Fatalf("DecodeRequest = %+v, %v; want entry 0 %+v", got, err, head)
		}
	}
}

// Frames from a sender that still piggybacked credit leases, byte for byte
// as that encoder wrote them: flag bit 1<<2 set and a lease section after
// the payload (request: op, demand, epoch; response: op, rate, burst, TTL,
// epoch, key). Both the bit and the section are retired.
var (
	leaseAskFrame = []byte{ // {ID: 11, Key: "hot", Cost: 1} + ask, demand 500, epoch 3
		0x4a, 0x01, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0b, 0xaa, 0xce, 0x2e, 0x5f,
		0x00, 0x00, 0x03, 0xe8, 0x00, 0x03, 0x68, 0x6f, 0x74, 0x01, 0x00, 0x07, 0xa1, 0x20, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
	}
	leaseRenewTracedFrame = []byte{ // {ID: 12, Key: "hot", Cost: 2, TraceID: 0x77} + renew, demand 80, epoch 3
		0x4a, 0x01, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x35, 0xa6, 0x55, 0xbd,
		0x00, 0x00, 0x07, 0xd0, 0x00, 0x03, 0x68, 0x6f, 0x74, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x77, 0x02, 0x00, 0x01, 0x38, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
	}
	leaseGrantFrame = []byte{ // {ID: 11, Allow: true} + grant, rate 10, burst 5, TTL 1 s, epoch 3
		0x4a, 0x01, 0x01, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0b, 0x99, 0x02, 0x21, 0xdc,
		0x01, 0x00, 0x01, 0x00, 0x00, 0x27, 0x10, 0x00, 0x00, 0x13, 0x88, 0x00, 0x00, 0x03, 0xe8, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
	}
	leaseRevokeTracedFrame = []byte{ // {ID: 12, TraceID: 0x77, ServerNanos: 42} + revoke of "cold", epoch 3
		0x4a, 0x01, 0x01, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x22, 0x9e, 0xef, 0x56,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x77, 0x00, 0x00, 0x00, 0x2a, 0x03, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x03, 0x00, 0x04, 0x63, 0x6f, 0x6c, 0x64,
	}
)

// A frame carrying the retired lease bit and section decodes to the same
// value as the frame without them, so a router that still asks for leases
// gets ordinary replies from a janusd that grants none, and a router reading
// a grant from an old janusd sees an ordinary verdict.
func TestRetiredLeaseSectionsAreIgnored(t *testing.T) {
	for _, c := range []struct {
		frame []byte
		want  Request
	}{
		{leaseAskFrame, Request{ID: 11, Key: "hot", Cost: 1}},
		{leaseRenewTracedFrame, Request{ID: 12, Key: "hot", Cost: 2, TraceID: 0x77}},
	} {
		plain, err := encodeRequest(c.want)
		if err != nil {
			t.Fatal(err)
		}
		fromPlain, err := decodeRequest(plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequest(c.frame)
		if err != nil || got != c.want || got != fromPlain {
			t.Errorf("DecodeRequest = %+v, %v; want %+v, as the frame without the lease section", got, err, c.want)
		}
	}
	for _, c := range []struct {
		frame []byte
		want  Response
	}{
		{leaseGrantFrame, Response{ID: 11, Allow: true, Status: StatusOK}},
		{leaseRevokeTracedFrame, Response{ID: 12, Status: StatusOK, TraceID: 0x77, ServerNanos: 42}},
	} {
		fromPlain, err := DecodeResponse(mustEncodeResponse(c.want))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(c.frame)
		if err != nil || got != c.want || got != fromPlain {
			t.Errorf("DecodeResponse = %+v, %v; want %+v, as the frame without the lease section", got, err, c.want)
		}
	}
}

func TestFuzzDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		decodeRequest(data)
		DecodeResponse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 4096)
	buf, err := AppendRequest(buf, Request{ID: 1, Key: "aaa", Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	buf, err = AppendRequest(buf, Request{ID: 2, Key: "bbbb", Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := decodeRequest(buf[:first])
	if err != nil || r1.Key != "aaa" {
		t.Fatalf("first record: %+v, %v", r1, err)
	}
	r2, err := decodeRequest(buf[first:])
	if err != nil || r2.Key != "bbbb" {
		t.Fatalf("second record: %+v, %v", r2, err)
	}
}

// TestDecodeRequestKeyAllocPin: decoding a stream whose key changes on every
// datagram allocates nothing, as a worker's decode must under uniform keys;
// DecodeRequestReuse pays a string per key change.
func TestDecodeRequestKeyAllocPin(t *testing.T) {
	var frames [2][]byte
	for i, key := range []string{"alice", "bob"} {
		var err error
		if frames[i], err = encodeRequest(Request{ID: uint64(i), Key: key, Cost: 1, TraceID: 9}); err != nil {
			t.Fatal(err)
		}
	}
	var req Request
	i := 0
	n := testing.AllocsPerRun(200, func() {
		key, err := DecodeRequestKey(frames[i%2], &req)
		if err != nil || len(key) == 0 || req.TraceID != 9 {
			t.Fatalf("DecodeRequestKey = %q, %+v, %v", key, req, err)
		}
		i++
	})
	if n != 0 {
		t.Errorf("DecodeRequestKey over alternating keys: %v allocs/op, want 0", n)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusOK:           "ok",
		StatusDefaultRule:  "default-rule",
		StatusDefaultReply: "default-reply",
		StatusError:        "error",
		StatusDegraded:     "degraded",
		Status(4):          "status(4)", // retired: it has no name, and no sender may reuse it
		Status(77):         "status(77)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestHTTPQueryRoundTrip(t *testing.T) {
	for _, want := range []Request{
		{Key: "1.2.3.4", Cost: 1},
		{Key: "user/db?strange&chars=1", Cost: 2},
		{Key: "k", Cost: 0.5},
		{Key: "sp ace+%2B\xff/~", Cost: 1e-7},
	} {
		uri := FormatHTTPQuery(want)
		if appended := string(AppendHTTPQuery([]byte("GET "), want)); appended != "GET "+uri {
			t.Fatalf("AppendHTTPQuery = %q, FormatHTTPQuery = %q", appended, uri)
		}
		u, err := url.Parse(uri)
		if err != nil {
			t.Fatalf("parse %q: %v", uri, err)
		}
		got, err := ParseHTTPQuery(u.Query())
		if err != nil {
			t.Fatalf("ParseHTTPQuery(%q): %v", uri, err)
		}
		if got.Key != want.Key || got.Cost != want.Cost {
			t.Fatalf("round trip %q: got %+v, want %+v", uri, got, want)
		}
	}
}

// checkHTTPQuery holds AppendHTTPQuery to the encoder it replaced:
// url.Values.Encode, which sorts the parameters and query-escapes each.
func checkHTTPQuery(t *testing.T, key string, cost float64) {
	t.Helper()
	v := url.Values{}
	v.Set(HTTPKeyParam, key)
	if cost != 0 && cost != 1 {
		v.Set(HTTPCostParam, strconv.FormatFloat(cost, 'f', -1, 64))
	}
	want := HTTPPath + "?" + v.Encode()
	if got := string(AppendHTTPQuery(nil, Request{Key: key, Cost: cost})); got != want {
		t.Fatalf("AppendHTTPQuery(%q, %v) = %q, url.Values gives %q", key, cost, got, want)
	}
}

func TestAppendHTTPQueryMatchesURLValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "az09 &=%+/-_.~?#\x00\x7f\x80\xff\xc3"
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.Intn(40))
		if i%200 == 0 {
			key = make([]byte, MaxKeyLen)
		}
		for j := range key {
			key[j] = alphabet[rng.Intn(len(alphabet))]
		}
		cost := []float64{0, 1, 2.5, 1e-9, 1e21, -3, math.Inf(1), math.NaN(), rng.Float64() * 100}[rng.Intn(9)]
		checkHTTPQuery(t, string(key), cost)
	}
}

func TestAppendHTTPQueryAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	req := Request{Key: "user 42/db", Cost: 2.5}
	if n := testing.AllocsPerRun(100, func() { buf = AppendHTTPQuery(buf[:0], req) }); n != 0 {
		t.Fatalf("AppendHTTPQuery allocates %v times per call, want 0", n)
	}
}

func TestHTTPQueryDefaultsCostToOne(t *testing.T) {
	req, err := ParseHTTPQuery(url.Values{HTTPKeyParam: {"k"}})
	if err != nil || req.Cost != 1 {
		t.Fatalf("req=%+v err=%v", req, err)
	}
}

// httpQueries are raw queries with what both parsers must make of them; ok
// false means an error. The non-finite costs were admitted as requests until
// the validation became one helper.
var httpQueries = []struct {
	query string
	want  Request
	ok    bool
}{
	{query: "key=k", want: Request{Key: "k", Cost: 1}, ok: true},
	{query: "cost=2.5&key=user+42%2Fdb", want: Request{Key: "user 42/db", Cost: 2.5}, ok: true},
	{query: "key=k&cost=0", want: Request{Key: "k", Cost: 0}, ok: true},
	{query: "key=k&cost=", want: Request{Key: "k", Cost: 1}, ok: true},
	{query: "k%65y=a&key=b&cost=3&cost=x", want: Request{Key: "a", Cost: 3}, ok: true},
	{query: "key=%zz&key=good", want: Request{Key: "good", Cost: 1}, ok: true},
	{query: "key=a;b&key=c", want: Request{Key: "c", Cost: 1}, ok: true},
	{query: "&&key=a#b&", want: Request{Key: "a#b", Cost: 1}, ok: true},
	{query: ""},
	{query: "cost=1"},
	{query: "key=&key=k"},
	{query: "key"},
	{query: "key=k&cost=abc"},
	{query: "key=k&cost=-1"},
	{query: "key=k&cost=NaN"},
	{query: "key=k&cost=Inf"},
	{query: "key=k&cost=%2BInf"},
	{query: "key=k&cost=infinity"},
	{query: "key=k&cost=1e400"},
	{query: "key=" + strings.Repeat("x", MaxKeyLen+1)},
}

// parseRaw is ParseHTTPRawQuery with the key appended after a prefix that
// must survive, returned as the request's Key.
func parseRaw(t *testing.T, query string) (Request, error) {
	t.Helper()
	var req Request
	buf, err := ParseHTTPRawQuery([]byte("prefix"), []byte(query), &req)
	if string(buf[:6]) != "prefix" {
		t.Fatalf("ParseHTTPRawQuery(%.40q) overwrote dst: %q", query, buf)
	}
	if err != nil {
		return Request{}, err
	}
	if req.Key != "" {
		t.Fatalf("ParseHTTPRawQuery(%.40q) set Key %q", query, req.Key)
	}
	req.Key = string(buf[6:])
	return req, nil
}

// TestHTTPQueryErrors runs every query of httpQueries through ParseHTTPQuery,
// after url.ParseQuery as the router's net/http handler did, and through
// ParseHTTPRawQuery.
func TestHTTPQueryErrors(t *testing.T) {
	for _, c := range httpQueries {
		values, _ := url.ParseQuery(c.query)
		got, err := ParseHTTPQuery(values)
		raw, rawErr := parseRaw(t, c.query)
		for _, r := range []struct {
			name string
			req  Request
			err  error
		}{{"ParseHTTPQuery", got, err}, {"ParseHTTPRawQuery", raw, rawErr}} {
			if (r.err == nil) != c.ok || c.ok && r.req != c.want {
				t.Errorf("%s(%.40q) = %+v, %v; want %+v, ok %v", r.name, c.query, r.req, r.err, c.want, c.ok)
			}
		}
		if err != nil && rawErr != nil && err.Error() != rawErr.Error() {
			t.Errorf("%.40q: ParseHTTPQuery says %q, ParseHTTPRawQuery %q", c.query, err, rawErr)
		}
	}
}

// TestParseHTTPRawQueryAllocs: decoding a key into a buffer with room for it
// allocates nothing, escaped or not, with a cost or without.
func TestParseHTTPRawQueryAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	var req Request
	for _, query := range []string{"key=user-42", "cost=2.5&key=user+42%2F"} {
		q := []byte(query)
		if n := testing.AllocsPerRun(100, func() { _, _ = ParseHTTPRawQuery(buf, q, &req) }); n != 0 {
			t.Errorf("ParseHTTPRawQuery(%q) allocates %v times, want 0", query, n)
		}
	}
}

func TestHTTPBody(t *testing.T) {
	if FormatHTTPBody(true) != BodyAllow || FormatHTTPBody(false) != BodyDeny {
		t.Fatal("body formatting wrong")
	}
	if v, err := ParseHTTPBody("true\n"); err != nil || !v {
		t.Fatalf("parse true: %v %v", v, err)
	}
	if v, err := ParseHTTPBody(" false "); err != nil || v {
		t.Fatalf("parse false: %v %v", v, err)
	}
	if _, err := ParseHTTPBody("maybe"); err == nil {
		t.Fatal("invalid body accepted")
	}
}
