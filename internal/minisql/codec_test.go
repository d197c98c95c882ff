package minisql

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
)

// sampleFrames holds one frame of each type, every field of it set.
func sampleFrames() []frame {
	rows := [][]Value{{Text("a"), Float(1.5)}, {Text("b"), null()}}
	return []frame{
		{Type: frameQuery, SQL: "SELECT key FROM qos_rules WHERE key = ?", Args: []Value{Text("a")}},
		{Type: frameResult, Result: Result{Rows: rows, Affected: 2,
			Feed: &Feed{Next: Cursor{Origin: math.MaxUint64, Seq: -1}, More: true, Reset: true}}},
		{Type: frameResult, Err: "minisql: no such table \"t\""},
		{Type: frameSubscribe, Cursor: Cursor{Origin: math.MaxUint64, Seq: 12}},
		{Type: frameSnapshot, Snap: SnapshotData{At: Cursor{Origin: 1, Seq: 9}, Tables: []TableSnapshot{{Name: "t",
			Schema: []columnDef{{name: "key", kind: KindText, pk: true}, {name: "credit", kind: KindFloat}},
			Head:   9, Horizon: 2, Rows: rows}}}},
		{Type: frameFeed, Snap: SnapshotData{At: Cursor{Origin: 1, Seq: 11}, Tables: []TableSnapshot{{Name: "t",
			Schema: []columnDef{{name: "key", kind: KindText, pk: true}, {name: "credit", kind: KindFloat}},
			Head:   11, Rows: [][]Value{{Int(10), Bool(false), Text("a"), Float(2)}, {Int(11), Bool(true), Text("b"), null()}}}}}},
		{Type: framePing},
		{Type: framePong, Serving: true},
	}
}

// decodeEncoded encodes f and decodes it back, the way a connection does.
func decodeEncoded(t *testing.T, f *frame) frame {
	t.Helper()
	var got frame
	if err := newFrameReader(bytes.NewReader(appendFrame(nil, f))).next(&got); err != nil {
		t.Fatalf("decode %+v: %v", f, err)
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		if got := decodeEncoded(t, &f); !reflect.DeepEqual(got, f) {
			t.Errorf("frame type %d: got %+v, want %+v", f.Type, got, f)
		}
	}
}

// TestFrameKeepsEdgeValuesAndNils: values that float and integer encodings
// commonly bend come back bit for bit, and empty lists and an absent feed
// come back nil.
func TestFrameKeepsEdgeValuesAndNils(t *testing.T) {
	args := []Value{Float(math.NaN()), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)),
		Int(math.MinInt64), Int(math.MaxInt64), Text(""), null()}
	got := decodeEncoded(t, &frame{Type: frameQuery, Args: args})
	for i, v := range got.Args {
		if v.Kind != args[i].Kind || v.I != args[i].I || math.Float64bits(v.F) != math.Float64bits(args[i].F) || v.S != args[i].S {
			t.Errorf("arg %d: got %#v, want %#v", i, v, args[i])
		}
	}
	empty := decodeEncoded(t, &frame{Type: frameResult, Result: Result{Rows: [][]Value{}}})
	if empty.Result.Rows != nil || empty.Result.Feed != nil {
		t.Errorf("empty result decodes as %#v, want nil lists and no feed", empty.Result)
	}
	if q := decodeEncoded(t, &frame{Type: frameQuery, Args: []Value{}}); q.Args != nil {
		t.Errorf("empty args decode as %#v, want nil", q.Args)
	}
}

// TestFrameReuseWritesEveryArg: a connection decodes every frame into one
// frame, so a NULL argument must not keep the last frame's value in its slot.
func TestFrameReuseWritesEveryArg(t *testing.T) {
	r := newFrameReader(bytes.NewReader(slices.Concat(
		appendFrame(nil, &frame{Type: frameQuery, Args: []Value{Int(1), Text("stale"), Float(2)}}),
		appendFrame(nil, &frame{Type: frameQuery, Args: []Value{null(), null()}}))))
	var f frame
	for range 2 {
		if err := r.next(&f); err != nil {
			t.Fatal(err)
		}
	}
	if want := []Value{null(), null()}; !reflect.DeepEqual(f.Args, want) {
		t.Fatalf("second frame's args = %#v, want %#v", f.Args, want)
	}
}

// TestFrameGolden pins the frame layout: changing these bytes changes the
// protocol every client, server and standby speaks.
func TestFrameGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    frame
		hex  string
	}{
		{"query with every value kind",
			frame{Type: frameQuery, SQL: "INSERT INTO t VALUES (?, ?, ?, ?)", Args: []Value{null(), Int(-2), Float(1.5), Text("k")}},
			"00000033" + "00" + "21" + hex.EncodeToString([]byte("INSERT INTO t VALUES (?, ?, ?, ?)")) +
				"04" + "00" + "0103" + "023ff8000000000000" + "03016b"},
		{"result with a feed",
			frame{Type: frameResult, Result: Result{Rows: [][]Value{{Int(7), Text("a")}},
				Feed: &Feed{Next: Cursor{Origin: 0xfeedface, Seq: 9}, More: true}}},
			"00000013" + "01" + "00" + "01" + "02" + "010e" + "030161" + "00" +
				"01" + "cef5b7f70f" + "12" + "01" + "00"},
		{"subscribe",
			frame{Type: frameSubscribe, Cursor: Cursor{Origin: 0xfeedface, Seq: 7}},
			"00000007" + "02" + "cef5b7f70f" + "0e"},
		{"snapshot",
			frame{Type: frameSnapshot, Snap: SnapshotData{At: Cursor{Origin: 1, Seq: 3}, Tables: []TableSnapshot{{Name: "t",
				Schema: []columnDef{{name: "k", kind: KindText, pk: true}}, Head: 3, Horizon: 1,
				Rows: [][]Value{{Int(3), Bool(false), Text("a")}}}}}},
			"00000016" + "03" + "0106" + "01" + "0174" + "01" + "016b" + "03" + "01" + "06" + "02" +
				"01" + "03" + "0106" + "0100" + "030161"},
		{"feed",
			frame{Type: frameFeed, Snap: SnapshotData{At: Cursor{Origin: 1, Seq: 4}, Tables: []TableSnapshot{{Name: "t",
				Schema: []columnDef{{name: "k", kind: KindText, pk: true}}, Head: 4, Horizon: 1,
				Rows: [][]Value{{Int(4), Bool(true), Text("a")}}}}}},
			"00000016" + "07" + "0108" + "01" + "0174" + "01" + "016b" + "03" + "01" + "08" + "02" +
				"01" + "03" + "0108" + "0102" + "030161"},
	} {
		if got := hex.EncodeToString(appendFrame(nil, &tc.f)); got != tc.hex {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.hex)
		}
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		hex  string
	}{
		{"empty body", "00000000"},
		{"length above the cap", "7fffffff00"},
		{"unknown type", "0000000108"},
		{"retired statement type", "0000000104"},
		{"trailing byte", "000000020500"},
		{"truncated uvarint", "00000003000080"},
		{"non-minimal uvarint", "0000000400800000"},
		{"count beyond the frame", "00000003000005"},
		{"bad kind", "0000000400000104"},
		{"short float", "00000006000001020000"},
		{"flag not 0 or 1", "000000020602"},
	} {
		b, _ := hex.DecodeString(tc.hex)
		var f frame
		if err := newFrameReader(bytes.NewReader(b)).next(&f); !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v, want a malformed-frame error", tc.name, err)
		}
	}
}
