package marketing

// The session wire: one table-driven codec for the coordinated-day messages
// of shard.go, used on both ends of every begin, tick, finish and abort. A
// message is a row of members — each a JSON key and the wire of its value —
// and one encoder and one scanner walk every row, so a message costs a row,
// not a parser.
//
// The encoder writes exactly the bytes encoding/json writes for the value
// (json.Marshal on the client, json.NewEncoder(w).Encode on the server),
// float formatting included, and declines what json.Marshal refuses (NaN and
// ±Inf); a declined value is handed to encoding/json, which reports the
// refusal in its own words. The scanner reads only that canonical shape —
// every member present, in declaration order, nothing between tokens, ASCII
// strings without escapes or control bytes, integers of at most 18 digits —
// and declines anything else; the caller then decodes the same bytes with
// encoding/json, which alone defines the accepted language, the status codes
// and the error text (DESIGN §4b). FuzzSessionWire holds both halves to
// encoding/json.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"github.com/adaudit/impliedidentity/internal/platform"
)

// wire appends and scans one JSON value of type V. put reports false where
// json.Marshal would fail; scan returns the bytes after the value, or false
// where the bytes are not the canonical form of a V.
type wire[V any] struct {
	put  func(buf []byte, v *V) ([]byte, bool)
	scan func(b []byte, v *V) ([]byte, bool)
}

// sessionBuf is the buffer a session message starts in: room for a 4-ad
// tick request, the largest per-tick message.
const sessionBuf = 512

// marshal is json.Marshal(v): the row's bytes, or encoding/json's own answer
// where the row declines.
func (w wire[V]) marshal(v *V) ([]byte, error) {
	if buf, ok := w.put(make([]byte, 0, sessionBuf), v); ok {
		return buf, nil
	}
	return json.Marshal(v)
}

// parse reads b when it is one canonical value followed by nothing but white
// space; ok is false otherwise and v is then the zero value.
func (w wire[V]) parse(b []byte) (v V, ok bool) {
	rest, ok := w.scan(b, &v)
	if !ok || len(bytes.TrimLeft(rest, " \t\r\n")) != 0 {
		var zero V
		return zero, false
	}
	return v, true
}

// member is one key of an object row: its quoted key and colon, and the
// wire of its value, reached from the struct.
type member[T any] struct {
	key string
	wire[T]
}

// field is the member named name, whose value at(v) is written by w.
func field[T, V any](name string, at func(*T) *V, w wire[V]) member[T] {
	return member[T]{key: `"` + name + `":`, wire: wire[T]{
		put:  func(buf []byte, v *T) ([]byte, bool) { return w.put(buf, at(v)) },
		scan: func(b []byte, v *T) ([]byte, bool) { return w.scan(b, at(v)) },
	}}
}

// object is the wire of a struct whose JSON members are ms, in declaration
// order — the order encoding/json writes them in.
func object[T any](ms ...member[T]) wire[T] {
	return wire[T]{
		put: func(buf []byte, v *T) ([]byte, bool) {
			buf = append(buf, '{')
			for i := range ms {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, ms[i].key...)
				var ok bool
				if buf, ok = ms[i].put(buf, v); !ok {
					return buf, false
				}
			}
			return append(buf, '}'), true
		},
		scan: func(b []byte, v *T) ([]byte, bool) {
			if len(b) == 0 || b[0] != '{' {
				return b, false
			}
			b = b[1:]
			for i := range ms {
				if i > 0 {
					if len(b) == 0 || b[0] != ',' {
						return b, false
					}
					b = b[1:]
				}
				var ok bool
				if b, ok = cut(b, ms[i].key); !ok {
					return b, false
				}
				if b, ok = ms[i].scan(b, v); !ok {
					return b, false
				}
			}
			if len(b) == 0 || b[0] != '}' {
				return b, false
			}
			return b[1:], true
		},
	}
}

// list is the wire of a slice: null for nil, as encoding/json writes it.
func list[E any](elem wire[E]) wire[[]E] {
	return wire[[]E]{
		put: func(buf []byte, v *[]E) ([]byte, bool) {
			if *v == nil {
				return append(buf, "null"...), true
			}
			buf = append(buf, '[')
			for i := range *v {
				if i > 0 {
					buf = append(buf, ',')
				}
				var ok bool
				if buf, ok = elem.put(buf, &(*v)[i]); !ok {
					return buf, false
				}
			}
			return append(buf, ']'), true
		},
		scan: func(b []byte, v *[]E) ([]byte, bool) {
			if rest, ok := cut(b, "null"); ok {
				*v = nil
				return rest, true
			}
			if len(b) == 0 || b[0] != '[' {
				return b, false
			}
			b = b[1:]
			if len(b) > 0 && b[0] == ']' {
				*v = []E{}
				return b[1:], true
			}
			out := make([]E, 0, 4)
			for {
				out = append(out, *new(E))
				var ok bool
				if b, ok = elem.scan(b, &out[len(out)-1]); !ok || len(b) == 0 {
					return b, false
				}
				switch b[0] {
				case ',':
					b = b[1:]
				case ']':
					*v = out
					return b[1:], true
				default:
					return b, false
				}
			}
		},
	}
}

// cut is bytes.CutPrefix for a string prefix, without converting it.
func cut(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// The scalar wires.
var (
	stringWire = wire[string]{put: putString, scan: scanString}
	intWire    = wire[int]{put: putInt[int], scan: scanInt[int]}
	int64Wire  = wire[int64]{put: putInt[int64], scan: scanInt[int64]}
	boolWire   = wire[bool]{put: putBool, scan: scanBool}
	floatWire  = wire[float64]{put: putFloat, scan: scanFloat}
)

func putString(buf []byte, s *string) ([]byte, bool) {
	if plainJSON(*s) {
		buf = append(buf, '"')
		buf = append(buf, *s...)
		return append(buf, '"'), true
	}
	// Marshal of a string cannot fail: invalid UTF-8 is replaced, not refused.
	quoted, _ := json.Marshal(*s)
	return append(buf, quoted...), true
}

// scanString takes a string of ASCII without escapes or control bytes,
// which encoding/json decodes to the same bytes.
func scanString(b []byte, s *string) ([]byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return b, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			*s = string(b[1:i])
			return b[i+1:], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return b, false
		}
	}
	return b, false
}

func putInt[I int | int64](buf []byte, v *I) ([]byte, bool) {
	return strconv.AppendInt(buf, int64(*v), 10), true
}

// maxIntDigits bounds the integers scanInt takes: 18 digits cannot overflow
// an int64, which is where encoding/json would refuse one.
const maxIntDigits = 18

// scanInt takes an optional minus and 1 to 18 digits without a leading zero,
// followed by neither a digit, a fraction nor an exponent.
func scanInt[I int | int64](b []byte, v *I) ([]byte, bool) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	start := i
	var n int64
	for ; i < len(b) && i-start < maxIntDigits && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + int64(b[i]-'0')
	}
	digits := i - start
	if digits == 0 || (digits > 1 && b[start] == '0') {
		return b, false
	}
	if i < len(b) {
		if c := b[i]; '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' {
			return b, false
		}
	}
	if start == 1 {
		n = -n
	}
	if int64(I(n)) != n {
		return b, false // past a 32-bit int
	}
	*v = I(n)
	return b[i:], true
}

func putBool(buf []byte, v *bool) ([]byte, bool) {
	return strconv.AppendBool(buf, *v), true
}

func scanBool(b []byte, v *bool) ([]byte, bool) {
	if rest, ok := cut(b, "true"); ok {
		*v = true
		return rest, true
	}
	if rest, ok := cut(b, "false"); ok {
		*v = false
		return rest, true
	}
	return b, false
}

// putFloat writes a float64 as encoding/json does: the shortest decimal that
// round-trips, in exponent form below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped. It declines NaN and ±Inf, which
// json.Marshal refuses.
func putFloat(buf []byte, v *float64) ([]byte, bool) {
	f := *v
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return buf, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(buf); buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, true
}

// scanFloat takes a JSON number and parses it as encoding/json does; one out
// of float64's range is declined.
func scanFloat(b []byte, v *float64) ([]byte, bool) {
	n := numberLen(b)
	if n == 0 {
		return b, false
	}
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil {
		return b, false
	}
	*v = f
	return b[n:], true
}

// numberLen is the length of the JSON number b starts with,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or 0 when it starts with
// none.
func numberLen(b []byte) int {
	i := 0
	digits := func() int {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0
		}
	}
	return i
}

// The session messages, one row each. A row lists its struct's JSON members
// in declaration order; FuzzSessionWire's seeds, which set every member,
// fail on a row that drifts from its struct.
var (
	beginDayWire = object(
		field("session", func(r *BeginDayRequest) *string { return &r.Session }, stringWire),
		field("ad_ids", func(r *BeginDayRequest) *[]string { return &r.AdIDs }, list(stringWire)),
		field("seed", func(r *BeginDayRequest) *int64 { return &r.Seed }, int64Wire),
		field("shard", func(r *BeginDayRequest) *int { return &r.Shard }, intWire),
		field("shards", func(r *BeginDayRequest) *int { return &r.Shards }, intWire),
	)
	dayInitWire = object(
		field("session", func(d *platform.DayInit) *string { return &d.Session }, stringWire),
		field("ticks", func(d *platform.DayInit) *int { return &d.Ticks }, intWire),
		field("greedy", func(d *platform.DayInit) *bool { return &d.Greedy }, boolWire),
		field("ads", func(d *platform.DayInit) *[]platform.DayAdPlan { return &d.Ads }, list(object(
			field("ad_id", func(a *platform.DayAdPlan) *string { return &a.AdID }, stringWire),
			field("daily_budget_cents", func(a *platform.DayAdPlan) *int { return &a.DailyBudgetCents }, intWire),
			field("pacing", func(a *platform.DayAdPlan) *float64 { return &a.Pacing }, floatWire),
		))),
	)
	dayTickWire = object(
		field("session", func(r *DayTickRequest) *string { return &r.Session }, stringWire),
		field("tick", func(r *DayTickRequest) *int { return &r.Tick }, intWire),
		field("directives", func(r *DayTickRequest) *[]platform.TickDirective { return &r.Directives }, list(object(
			field("pacing", func(d *platform.TickDirective) *float64 { return &d.Pacing }, floatWire),
			field("spent", func(d *platform.TickDirective) *float64 { return &d.Spent }, floatWire),
			field("cap", func(d *platform.TickDirective) *float64 { return &d.Cap }, floatWire),
		))),
	)
	tickReportWire = object(
		field("tick", func(r *platform.TickReport) *int { return &r.Tick }, intWire),
		field("spent", func(r *platform.TickReport) *[]float64 { return &r.Spent }, list(floatWire)),
		field("auctions", func(r *platform.TickReport) *int64 { return &r.Auctions }, int64Wire),
	)
	finishDayWire = object(
		field("session", func(r *FinishDayRequest) *string { return &r.Session }, stringWire),
		field("spend_cents", func(r *FinishDayRequest) *[]float64 { return &r.SpendCents }, list(floatWire)),
	)
	abortDayWire = object(
		field("session", func(r *AbortDayRequest) *string { return &r.Session }, stringWire),
	)
)
