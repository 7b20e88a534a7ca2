package storage

import (
	"math"
	"strings"
)

// Tuple is an ordered list of values; the i-th value belongs to the i-th
// column of the owning relation's schema.
type Tuple []Value

// canonicalNaN is the one bit pattern every NaN keys as: math.NaN()'s,
// which is also what ParseValue("NaN") produces.
var canonicalNaN = math.Float64bits(math.NaN())

// floatBits returns an equality-preserving bit pattern for f, normalizing
// -0 to +0 and every NaN payload to canonicalNaN, so that two Equal
// floats always produce the same key.
func floatBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0 // collapse -0 and +0
	case math.IsNaN(f):
		return canonicalNaN
	}
	return math.Float64bits(f)
}

// Key returns an injective string encoding of the tuple, suitable for use
// as a map key. Distinct tuples always produce distinct keys because each
// value encoding is self-delimiting.
func (t Tuple) Key() string {
	return string(t.AppendKey(make([]byte, 0, 16*len(t))))
}

// AppendKey appends the tuple's key encoding (see Key) to dst and returns
// the extended buffer. Probe loops reuse one buffer per worker to avoid a
// string allocation per tuple.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return dst
}

// KeyOn returns the key of the projection of t onto the given column
// positions, without materializing the projected tuple.
func (t Tuple) KeyOn(cols []int) string {
	return string(t.AppendKeyOn(make([]byte, 0, 16*len(cols)), cols))
}

// AppendKeyOn appends the key of the projection of t onto cols to dst,
// without materializing the projected tuple or a key string.
func (t Tuple) AppendKeyOn(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = t[c].AppendKey(dst)
	}
	return dst
}

// Project returns a new tuple holding the values at the given positions.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Equal reports positional semantic equality of two tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by Value.Compare; shorter tuples
// order before longer ones with an equal prefix.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	default:
		return 0
	}
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
