package storage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(42), KindInt, "42"},
		{Int(-7), KindInt, "-7"},
		{Float(2.5), KindFloat, "2.5"},
		{Str("beer"), KindString, "beer"},
		{Null(), KindNull, "NULL"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(5).AsInt() != 5 {
		t.Error("AsInt(Int(5)) != 5")
	}
	if Int(5).AsFloat() != 5.0 {
		t.Error("AsFloat(Int(5)) != 5.0")
	}
	if Float(1.5).AsFloat() != 1.5 {
		t.Error("AsFloat(Float(1.5)) != 1.5")
	}
	if Str("x").AsString() != "x" {
		t.Error("AsString(Str(x)) != x")
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull wrong")
	}
	if !Int(1).IsNumeric() || !Float(1).IsNumeric() || Str("1").IsNumeric() {
		t.Error("IsNumeric wrong")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt on string", func() { Str("x").AsInt() })
	mustPanic("AsString on int", func() { Int(1).AsString() })
	mustPanic("AsFloat on string", func() { Str("x").AsFloat() })
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.5), -1},
		{Float(1.0), Int(1), 0}, // cross-kind numeric equality
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Null(), Int(-100), -1},
		{Int(1 << 62), Str(""), -1}, // numerics before strings
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestValueCompareLargeInts(t *testing.T) {
	// Large int64s that would collide as float64s must still order exactly.
	a, b := Int(math.MaxInt64-1), Int(math.MaxInt64)
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("large int comparison lost precision")
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("Int(3) should Equal Float(3)")
	}
	if Int(3) == Float(3) {
		t.Error("Int(3) must differ from Float(3) under ==")
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"42", Int(42)},
		{"-1", Int(-1)},
		{"2.5", Float(2.5)},
		{"1e3", Float(1000)},
		{"beer", Str("beer")},
		{"", Str("")},
		{`"42"`, Str("42")}, // quoted stays string
		{"12abc", Str("12abc")},
	}
	for _, c := range cases {
		if got := ParseValue(c.in); got != c.want {
			t.Errorf("ParseValue(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestValueLiteralRoundTrip(t *testing.T) {
	vals := []Value{Int(7), Float(3.25), Str("hello world"), Str("42")}
	for _, v := range vals {
		got := ParseValue(v.Literal())
		if !got.Equal(v) || got.Kind() != v.Kind() {
			t.Errorf("ParseValue(Literal(%v)) = %v (kind %v), want same", v, got, got.Kind())
		}
	}
}

// randomValue produces an arbitrary Value for property tests. Floats are
// drawn from a finite, NaN-free range.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(3) {
	case 0:
		return Int(r.Int63n(2000) - 1000)
	case 1:
		return Float(float64(r.Intn(2000)-1000) / 4)
	default:
		letters := "abcdefgh"
		n := r.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return Str(string(b))
	}
}

func TestValueKeyInjective(t *testing.T) {
	// Property: keys coincide exactly when the values are Equal. This is
	// deliberately kind-insensitive — Int(1) and Float(1) compare Equal, so
	// they must share a key (hash joins and distinct-counting are keyed on
	// this encoding and must agree with Compare).
	f := func(seedA, seedB int64) bool {
		ra, rb := rand.New(rand.NewSource(seedA)), rand.New(rand.NewSource(seedB))
		a, b := randomValue(ra), randomValue(rb)
		ka := string(a.AppendKey(nil))
		kb := string(b.AppendKey(nil))
		return (ka == kb) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestValueKeyCrossKind is the regression for the kind-sensitive key
// encoding: Equal/Compare treat Int(n) and Float(n) as the same value, but
// AppendKey used to tag them with different kind bytes, so semantically
// equal numerics missed each other in hash joins and were double-counted
// by COUNT-distinct.
func TestValueKeyCrossKind(t *testing.T) {
	pairs := []struct{ a, b Value }{
		{Int(1), Float(1)},
		{Int(0), Float(math.Copysign(0, -1))},
		{Int(-7), Float(-7.0)},
		{Int(1 << 40), Float(float64(int64(1) << 40))},
		{Int(-9223372036854775808), Float(-9223372036854775808.0)},
	}
	for _, p := range pairs {
		ka := string(p.a.AppendKey(nil))
		kb := string(p.b.AppendKey(nil))
		if !p.a.Equal(p.b) {
			t.Fatalf("%v and %v should be Equal", p.a, p.b)
		}
		if ka != kb {
			t.Errorf("%v and %v are Equal but key differently", p.a, p.b)
		}
	}
	// Non-Equal values must keep distinct keys.
	distinct := []struct{ a, b Value }{
		{Float(1.5), Int(1)},
		{Float(1.5), Int(2)},
		{Float(math.NaN()), Int(0)},
		{Float(math.Inf(1)), Int(1)},
		{Str("1"), Int(1)},
		{Null(), Int(0)},
	}
	for _, p := range distinct {
		ka := string(p.a.AppendKey(nil))
		kb := string(p.b.AppendKey(nil))
		if ka == kb {
			t.Errorf("%v and %v are not Equal but share a key", p.a, p.b)
		}
	}
}

func TestValueNormalize(t *testing.T) {
	cases := []struct{ in, want Value }{
		{Float(3), Int(3)},
		{Float(-0.0), Int(0)},
		{Float(1.5), Float(1.5)},
		{Float(math.NaN()), Float(math.NaN())},
		{Float(math.Inf(1)), Float(math.Inf(1))},
		// 2^63 is integral but above int64 range: must stay a float.
		{Float(9223372036854775808.0), Float(9223372036854775808.0)},
		{Float(-9223372036854775808.0), Int(-9223372036854775808)},
		{Int(5), Int(5)},
		{Str("5"), Str("5")},
		{Null(), Null()},
	}
	for _, c := range cases {
		got := c.in.Normalize()
		if got.Kind() != c.want.Kind() {
			t.Errorf("Normalize(%v): kind %v, want %v", c.in, got.Kind(), c.want.Kind())
			continue
		}
		// NaN != NaN, so compare keys rather than values.
		if string(got.AppendKey(nil)) != string(c.want.AppendKey(nil)) {
			t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFloatBitsNegZero(t *testing.T) {
	if floatBits(0.0) != floatBits(math.Copysign(0, -1)) {
		t.Error("-0 and +0 must share a key")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	// Property: Compare is antisymmetric and transitive on random triples.
	f := func(s1, s2, s3 int64) bool {
		r1, r2, r3 := rand.New(rand.NewSource(s1)), rand.New(rand.NewSource(s2)), rand.New(rand.NewSource(s3))
		a, b, c := randomValue(r1), randomValue(r2), randomValue(r3)
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// transitivity: a<=b && b<=c => a<=c
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestValueCompareExact pins the exact numeric order: Int/Float pairs
// that float64 rounds onto one image stay distinct and ordered, and NaN
// is one value above +Inf, Equal only to itself.
func TestValueCompareExact(t *testing.T) {
	nan2 := Float(math.Float64frombits(0xfff8000000000001)) // a negative-sign NaN
	cases := []struct {
		a, b Value
		want int
	}{
		{Float(1 << 53), Int(1<<53 + 1), -1},
		{Int(1<<53 + 1), Float(1<<53 + 2), -1},
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Int(math.MinInt64), Float(-(1 << 63)), 0},
		{Int(math.MinInt64), Float(-1e19), 1},
		{Int(2), Float(2.5), -1},
		{Int(-2), Float(-2.5), 1},
		{Int(-2), Float(-1.5), -1},
		{Float(math.NaN()), Float(math.Inf(1)), 1},
		{Float(math.NaN()), Int(math.MaxInt64), 1},
		{Float(math.NaN()), nan2, 0},
		{Float(math.NaN()), Str(""), -1},
		{Float(math.NaN()), Null(), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
		if keq := string(c.a.AppendKey(nil)) == string(c.b.AppendKey(nil)); keq != (c.want == 0) {
			t.Errorf("%v, %v: keys equal %v, Compare %d", c.a, c.b, keq, c.want)
		}
	}
	// A CSV field "NaN" is a float NaN, Equal to no number.
	if v := ParseValue("NaN"); v.Equal(Int(0)) || v.Equal(Float(1.5)) || !v.Equal(nan2) {
		t.Errorf("ParseValue(NaN) = %#v compares Equal to a number or not to NaN", v)
	}
}
