// Package minisql is a from-scratch, in-memory mini relational database that
// stands in for the MySQL/RDS database layer of the paper (§II-D, §III-D).
//
// It implements exactly the surface Janus needs, and implements it for real:
//
//   - a typed storage engine (tables, rows, primary-key hash index),
//   - a SQL subset, the statements Janus sends and no more — CREATE TABLE
//     [IF NOT EXISTS] with INT, FLOAT and TEXT columns and one PRIMARY KEY;
//     INSERT and REPLACE of whole rows, several per statement; SELECT of
//     columns, * or COUNT(*) with optional WHERE, ORDER BY col [ASC|DESC]
//     and LIMIT; UPDATE … SET; DELETE — with ?-placeholders and NULL, each
//     statement atomic. A WHERE is exactly one `<primary key> = value`, and
//     UPDATE and DELETE require it, so each touches at most one row; an
//     UPDATE never sets the key. Every changed row takes one sequence number,
//   - a per-table change feed, SELECT CHANGES FROM t SINCE origin, seq,
//     over sequence-numbered writes and a bounded set of delete tombstones,
//     with one rule for whether a reader's cursor reads on (changes.go),
//   - a length-prefixed binary TCP wire protocol with a pooled client
//     (codec.go), served as a handler on internal/tcp's accept loop and
//     read with tcp.ReadFrame: every frame in either direction is a 4-byte
//     length, a type byte and the frame's fields — lists as a uvarint
//     count, texts as a uvarint length and bytes, a value as its kind byte
//     then a zig-zag varint (INT), 8 big-endian IEEE 754 bytes (FLOAT), a
//     text (TEXT) or nothing (NULL); a result carries its rows and no
//     column names,
//   - master/standby replication over the same change feed — the master
//     streams to each standby on the connection it subscribed on, until
//     that connection ends; the standby applies each entry at the master's
//     sequence number and re-follows by itself after a lost connection —
//     and promotion, mirroring the Multi-AZ RDS failover behaviour the
//     paper relies on.
//
// The paper's access pattern is: a full-table scan at warm-up ("SELECT *
// FROM qos_rules", here the change feed read from no cursor), point reads on
// the primary key when a QoS server sees a new key, and periodic point
// writes for checkpointing. Rule sync reads the change feed, which costs the
// rows changed since its cursor (checkpointed credits included).
package minisql

import (
	"cmp"
	"fmt"
	"strconv"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

// Supported kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// null, Int, Float and Text construct values.
func null() Value           { return Value{Kind: KindNull} }
func Int(v int64) Value     { return Value{Kind: KindInt, I: v} }
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }
func Text(v string) Value   { return Value{Kind: KindText, S: v} }

// Bool encodes a boolean as INT 0/1, as MySQL does.
func Bool(v bool) Value {
	if v {
		return Int(1)
	}
	return Int(0)
}

// isNull reports whether v is the SQL NULL.
func (v Value) isNull() bool { return v.Kind == KindNull }

// AsInt coerces v to int64 (text parses, float truncates, null is 0).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindText:
		n, _ := strconv.ParseInt(v.S, 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat coerces v to float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindText:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	default:
		return 0
	}
}

// AsText coerces v to its string rendering.
func (v Value) AsText() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindText:
		return v.S
	default:
		return ""
	}
}

// String implements fmt.Stringer with SQL-style literals.
func (v Value) String() string {
	if v.Kind == KindText {
		return "'" + v.S + "'"
	}
	if v.Kind == KindNull {
		return "NULL"
	}
	return v.AsText()
}

// compare orders a against b: -1, 0, +1. NULL sorts before everything.
// Numeric kinds compare numerically (int vs float allowed, two INTs exactly
// as int64); text compares lexicographically; a numeric never equals a text.
func compare(a, b Value) int {
	if a.Kind == KindInt && b.Kind == KindInt {
		return cmp.Compare(a.I, b.I)
	}
	an, bn := a.Kind == KindNull, b.Kind == KindNull
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	at, bt := a.Kind == KindText, b.Kind == KindText
	switch {
	case at && bt:
		return cmp.Compare(a.S, b.S)
	case at != bt:
		// Mixed text/number: order numbers before text, never equal.
		if at {
			return 1
		}
		return -1
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// coerce converts v to the column kind k, returning an error on an
// impossible conversion (typed columns reject mismatched text).
func coerce(v Value, k Kind) (Value, error) {
	if v.isNull() {
		return v, nil
	}
	switch k {
	case KindInt:
		if v.Kind == KindText {
			n, err := strconv.ParseInt(v.S, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("minisql: cannot coerce %s to INT", v)
			}
			return Int(n), nil
		}
		return Int(v.AsInt()), nil
	case KindFloat:
		if v.Kind == KindText {
			f, err := strconv.ParseFloat(v.S, 64)
			if err != nil {
				return Value{}, fmt.Errorf("minisql: cannot coerce %s to FLOAT", v)
			}
			return Float(f), nil
		}
		return Float(v.AsFloat()), nil
	case KindText:
		return Text(v.AsText()), nil
	default:
		return v, nil
	}
}
