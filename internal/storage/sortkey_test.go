package storage

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

func checkSortKeyPair(t *testing.T, v, w Value) {
	t.Helper()
	vk, wk := v.AppendSortKey(nil), w.AppendSortKey(nil)
	veq, weq := v.AppendKey(nil), w.AppendKey(nil)
	// Equality classes must be exactly AppendKey's.
	if bytes.Equal(vk, wk) != bytes.Equal(veq, weq) {
		t.Fatalf("sort-key equality disagrees with AppendKey classes: %v vs %v (sort %x/%x, eq %x/%x)",
			v, w, vk, wk, veq, weq)
	}
	// Byte order must agree with Compare everywhere.
	if got, want := sign(bytes.Compare(vk, wk)), sign(v.Compare(w)); got != want {
		t.Fatalf("bytes.Compare(sortKey(%v), sortKey(%v)) = %d, Value.Compare = %d", v, w, got, want)
	}
	// Prefix-freeness: one value's key is never a proper prefix of
	// another's (required for bound-column-prefix matching on tuples).
	if !bytes.Equal(vk, wk) && (bytes.HasPrefix(vk, wk) || bytes.HasPrefix(wk, vk)) {
		t.Fatalf("sort keys not prefix-free: %v -> %x, %v -> %x", v, vk, w, wk)
	}
}

func checkPayloadRoundTrip(t *testing.T, v Value) {
	t.Helper()
	got, rest, err := DecodePayloadValue(v.AppendPayload(nil))
	if err != nil {
		t.Fatalf("payload round trip of %v: %v", v, err)
	}
	if len(rest) != 0 {
		t.Fatalf("payload of %v left %d bytes", v, len(rest))
	}
	if got != v && !(v.Kind() == KindFloat && got.Kind() == KindFloat &&
		math.Float64bits(got.AsFloat()) == math.Float64bits(v.AsFloat())) {
		t.Fatalf("payload round trip of %#v gave %#v", v, got)
	}
}

func TestSortKeyProperties(t *testing.T) {
	values := []Value{
		Null(),
		Int(0), Int(1), Int(-1), Int(42), Int(-42),
		Int(math.MaxInt64), Int(math.MinInt64),
		Int(1 << 53), Int(1<<53 + 1), Int(-(1 << 53)),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(1.5), Float(-1.5),
		Float(math.Pi), Float(-math.Pi), Float(1e300), Float(-1e300),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		Float(1 << 53), Float(9.3e18), // out of int64 range
		Float(1 << 63), Int(math.MaxInt64 - 511), Int(math.MaxInt64 - 512), Int(math.MaxInt64 - 1024),
		Float(-(1 << 63)), Int(math.MinInt64 + 1), Float(math.Float64frombits(0xfff8000000000001)),
		Int(1<<53 + 2), Float(1<<53 + 2), Float(maxIntImage),
		Str(""), Str("a"), Str("ab"), Str("b"),
		Str("a\x00"), Str("a\x00x"), Str("a\x01"), Str("a\x01\x02"),
		Str("\x00"), Str("\x01"), Str("\x02"), Str("\x00\xff"), Str("\xff"),
		Str("NULL"), Str("query flocks"),
	}
	for _, v := range values {
		checkPayloadRoundTrip(t, v)
		for _, w := range values {
			checkSortKeyPair(t, v, w)
		}
	}
}

// TestTuplePrefixMatching pins the bound-column-prefix contract: a row's
// sort key starts with a k-column prefix key exactly when the leading k
// columns are class-equal.
func TestTuplePrefixMatching(t *testing.T) {
	rows := []Tuple{
		{Str("a"), Int(1)},
		{Str("a"), Int(2)},
		{Str("a\x00x"), Int(1)},
		{Str("ab"), Int(1)},
		{Int(1), Str("a")},
		{Float(1), Str("b")}, // class-equal first column with the row above
		{Null(), Null()},
	}
	for _, probe := range rows {
		prefix := probe[:1].AppendSortKey(nil)
		for _, row := range rows {
			got := bytes.HasPrefix(row.AppendSortKey(nil), prefix)
			want := row[0].Equal(probe[0])
			if got != want {
				t.Fatalf("prefix match of %v against row %v: got %v, want %v", probe[0], row, got, want)
			}
		}
	}
}

// FuzzSortKey is the satellite fuzz target: round-trip exactness of the
// payload codec plus sort-key order/equality agreement with
// Value.Compare/AppendKey across mixed kinds. Seeds include every token
// of the examples corpus so the fuzzer starts from realistic values.
func FuzzSortKey(f *testing.F) {
	seed := func(s string) { f.Add(s, s, int64(len(s)), float64(len(s)), uint8(3), uint8(3)) }
	seed("")
	seed("beer")
	seed("a\x00b\x01c")
	f.Add("x", "y", int64(1<<53), 1.5, uint8(1), uint8(2))
	f.Add("", "", int64(-1), math.Copysign(0, -1), uint8(2), uint8(1))
	f.Add("NULL", "0", int64(0), 0.0, uint8(0), uint8(3))
	// Float image ties: Float(2^53) vs Int(2^53+1), Float(2^63) vs
	// Int(2^63-1), and NaN against a number.
	f.Add("", "", int64(1<<53), float64(1<<53), uint8(2), uint8(1))
	f.Add("", "", int64(math.MaxInt64-1), float64(1<<63), uint8(2), uint8(1))
	f.Add("", "", int64(7), math.NaN(), uint8(2), uint8(1))
	dir := filepath.Join("..", "..", "examples", "flocks")
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				continue
			}
			for _, tok := range strings.Fields(string(raw)) {
				seed(tok)
			}
		}
	}
	mk := func(kind uint8, s string, i int64, fl float64) Value {
		switch kind % 4 {
		case 0:
			return Null()
		case 1:
			return Int(i)
		case 2:
			return Float(fl)
		default:
			return Str(s)
		}
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, i int64, fl float64, k1, k2 uint8) {
		v := mk(k1, s1, i, fl)
		w := mk(k2, s2, i+1, fl/3)
		checkPayloadRoundTrip(t, v)
		checkPayloadRoundTrip(t, w)
		checkSortKeyPair(t, v, w)

		// Tuple-level: payload codec round-trips the pair exactly, and
		// the concatenated sort key preserves the prefix property.
		tup := Tuple{v, w}
		back := make(Tuple, 2)
		if err := decodePayloadInto(back, tup.AppendPayload(nil)); err != nil {
			t.Fatalf("tuple payload round trip: %v", err)
		}
		for i := range tup {
			if math.Float64bits(floatOf(back[i])) != math.Float64bits(floatOf(tup[i])) || back[i].Kind() != tup[i].Kind() {
				t.Fatalf("tuple payload round trip of %#v gave %#v", tup, back)
			}
		}
		prefix := tup[:1].AppendSortKey(nil)
		if !bytes.HasPrefix(tup.AppendSortKey(nil), prefix) {
			t.Fatalf("tuple sort key does not extend its own prefix: %#v", tup)
		}
	})
}

// floatOf maps a value onto a comparable float image for the round-trip
// check (strings hash by content instead).
func floatOf(v Value) float64 {
	switch v.Kind() {
	case KindInt:
		return float64(v.AsInt())
	case KindFloat:
		return v.AsFloat()
	case KindString:
		return float64(fnv1a(v.AsString()))
	default:
		return 0
	}
}
