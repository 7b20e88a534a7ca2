package storage

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"
)

func dictDB() *Database {
	db := NewDatabase()
	r := NewRelation("r", "A", "B")
	r.Insert(Tuple{Int(3), Str("b")})
	r.Insert(Tuple{Int(1), Str("a")})
	r.Insert(Tuple{Int(2), Str("c")})
	db.Add(r)
	return db
}

func TestBuildDictOrderPreserving(t *testing.T) {
	d := BuildDict(dictDB())
	// 6 distinct classes + null.
	if d.Len() != 7 {
		t.Fatalf("Len = %d, want 7", d.Len())
	}
	vals := []Value{Int(1), Int(2), Int(3), Str("a"), Str("b"), Str("c")}
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		id, ok := d.Lookup(v)
		if !ok {
			t.Fatalf("Lookup(%v) missed", v)
		}
		ids[i] = id
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not in Compare order: %v -> %v", vals, ids)
		}
		if ids[i] >= d.SortedLen() {
			t.Fatalf("built ID %d is past the order-preserved prefix %d", ids[i], d.SortedLen())
		}
	}
	if id, _ := d.Lookup(Null()); id != NullID {
		t.Fatalf("null ID = %d", id)
	}
}

func TestDictCrossKindEquality(t *testing.T) {
	d := BuildDict(dictDB())
	// Int(1) and Float(1) are Equal, so they share one equality class.
	iid, ok := d.Lookup(Int(1))
	if !ok {
		t.Fatal("Int(1) missing")
	}
	fid, ok := d.Lookup(Float(1))
	if !ok {
		t.Fatal("Float(1) should hit Int(1)'s class")
	}
	if iid != fid {
		t.Fatalf("Int(1) id %d != Float(1) id %d", iid, fid)
	}
	if got := d.Intern(Float(1.0)); got != iid {
		t.Fatalf("Intern(Float(1)) = %d, want %d", got, iid)
	}
	// The representative is the stored value, so decode is exact for
	// base data.
	if v := d.Value(iid); !v.Equal(Int(1)) {
		t.Fatalf("Value(%d) = %v", iid, v)
	}
}

func TestDictInternAppends(t *testing.T) {
	d := BuildDict(dictDB())
	n := d.Len()
	id := d.Intern(Str("zzz"))
	if int(id) != n {
		t.Fatalf("appended id = %d, want %d", id, n)
	}
	if d.Len() != n+1 {
		t.Fatalf("Len after append = %d", d.Len())
	}
	if d.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", d.Misses())
	}
	if again := d.Intern(Str("zzz")); again != id {
		t.Fatalf("re-intern = %d, want %d", again, id)
	}
	if d.Hits() == 0 {
		t.Fatal("re-intern should count a hit")
	}
	if _, ok := d.Lookup(Str("never")); ok {
		t.Fatal("Lookup of unseen value should miss")
	}
	// Appended IDs keep only the equality guarantee.
	if id < d.SortedLen() {
		t.Fatal("appended ID should not claim order preservation")
	}
}

func TestDictRoundTrip(t *testing.T) {
	db := dictDB()
	d := BuildDict(db)
	for _, tp := range db.MustRelation("r").Tuples() {
		ids := d.InternTuple(tp, nil)
		for i, id := range ids {
			if got := d.Value(id); got != tp[i] {
				t.Fatalf("round-trip %v -> %d -> %v", tp[i], id, got)
			}
		}
	}
	if d.Misses() != 0 {
		t.Fatalf("round-trip of built values missed %d times", d.Misses())
	}
}

func TestDictViewRefresh(t *testing.T) {
	d := NewDict()
	view := d.View()
	if view.Len() != 1 {
		t.Fatalf("fresh view len = %d", view.Len())
	}
	id := d.Intern(Int(42))
	if int(id) < view.Len() {
		t.Fatal("new ID should be past the stale view")
	}
	view = d.View()
	if !view.Value(id).Equal(Int(42)) {
		t.Fatalf("refreshed view decodes %v", view.Value(id))
	}
	if view.Kind(id) != KindInt {
		t.Fatalf("kind sidecar = %v", view.Kind(id))
	}
}

func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	const goroutines, vals = 8, 200
	ids := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]uint32, vals)
			for i := 0; i < vals; i++ {
				ids[g][i] = d.Intern(Int(int64(i)))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < vals; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned Int(%d) as %d, goroutine 0 as %d", g, i, ids[g][i], ids[0][i])
			}
		}
	}
	if d.Len() != vals+1 {
		t.Fatalf("Len = %d, want %d", d.Len(), vals+1)
	}
}

func TestDatabaseDictSharedByClone(t *testing.T) {
	db := dictDB()
	clone := db.Clone()
	if db.Dict() != clone.Dict() {
		t.Fatal("clone should share the database's dictionary")
	}
}

// TestHashEquivalence pins the three FNV-1a entry points together: the
// byte and string forms must agree (shard routing builds keys as bytes
// but can look them up as strings), and hashIDs must equal hashing the
// packed-ID encoding (the row and columnar paths partition identically).
func TestHashEquivalence(t *testing.T) {
	keys := [][]byte{nil, {}, {0}, {0xff, 0x00, 0x7f}, []byte("query flocks")}
	for _, k := range keys {
		if hashKey(k) != fnv1a(string(k)) {
			t.Fatalf("hashKey(%x) != fnv1a of the same bytes as a string", k)
		}
	}
	idTuples := [][]uint32{{}, {0}, {1, 2, 3}, {0xdeadbeef, 0, 0xffffffff}}
	for _, ids := range idTuples {
		if hashIDs(ids) != hashKey(packIDs(nil, ids)) {
			t.Fatalf("hashIDs(%v) != fnv1a(packIDs(%v))", ids, ids)
		}
		if HashIDs(ids) != hashIDs(ids) {
			t.Fatal("exported HashIDs drifted from hashIDs")
		}
	}
}

// FuzzDictCrossKind checks that Int/Float cross-kind equality through
// the dictionary matches Value.Equal for arbitrary numbers: interning
// both forms of any integer-valued float must yield one ID, and
// distinct numbers distinct IDs. A BuildDict over the pair must number
// them in Compare order, and Equal must agree with their join keys.
func FuzzDictCrossKind(f *testing.F) {
	f.Add(int64(1), 1.0)
	f.Add(int64(0), 0.0)
	f.Add(int64(-5), 2.5)
	f.Add(int64(1<<53), float64(1<<53))
	// Float64 rounds 2^53+1 onto 2^53: the pair must stay two values.
	f.Add(int64(1<<53+1), float64(1<<53))
	// NaN is one value of its own, Equal to no number.
	f.Add(int64(0), math.NaN())
	f.Add(int64(math.MaxInt64), float64(1<<63))
	f.Fuzz(func(t *testing.T, n int64, x float64) {
		d := NewDict()
		in, fl := Int(n), Float(x)
		iid, fid := d.Intern(in), d.Intern(fl)
		if (iid == fid) != in.Equal(fl) {
			t.Fatalf("Int(%d) id %d, Float(%v) id %d, Equal=%v", n, iid, x, fid, in.Equal(fl))
		}
		if !d.Value(iid).Equal(in) || !d.Value(fid).Equal(fl) {
			t.Fatalf("round-trip broke: %v / %v", d.Value(iid), d.Value(fid))
		}
		if keq := string(in.AppendKey(nil)) == string(fl.AppendKey(nil)); keq != in.Equal(fl) {
			t.Fatalf("Int(%d), Float(%v): keys equal %v, Equal %v", n, x, keq, in.Equal(fl))
		}
		checkDictOrder(t, []Value{in, fl})
	})
}

// checkDictOrder builds a dictionary over vals and asserts that ID order
// is Compare order on every pair: sign(Compare(v, w)) == sign(id(v) -
// id(w)), with every built ID in the order-preserved prefix.
func checkDictOrder(t *testing.T, vals []Value) {
	t.Helper()
	db := NewDatabase()
	r := NewRelation("r", "A")
	for _, v := range vals {
		r.Insert(Tuple{v})
	}
	db.Add(r)
	d := BuildDict(db)
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		id, ok := d.Lookup(v)
		if !ok {
			t.Fatalf("Lookup(%#v) missed after BuildDict", v)
		}
		ids[i] = id
	}
	for i, v := range vals {
		for j, w := range vals {
			if ids[i] >= d.SortedLen() {
				t.Fatalf("built ID %d is past the order-preserved prefix %d", ids[i], d.SortedLen())
			}
			if got, want := sign(int(ids[i])-int(ids[j])), sign(v.Compare(w)); got != want {
				t.Fatalf("id(%v)=%d, id(%v)=%d, but Compare = %d", v, ids[i], w, ids[j], want)
			}
		}
	}
}

// FuzzDictCompareOrder asserts that a BuildDict over any mix of ints,
// floats (NaN and infinities included), strings and nulls numbers the
// classes in Compare order — the property the columnar executor's
// integer ID comparison rests on. Each 9-byte chunk of the input is one
// value: a kind byte, then 8 payload bytes.
func FuzzDictCompareOrder(f *testing.F) {
	chunk := func(kind byte, u uint64) []byte {
		return append([]byte{kind}, binary.LittleEndian.AppendUint64(nil, u)...)
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	f.Add(cat(chunk(1, 1<<53+1), chunk(2, math.Float64bits(1<<53)), chunk(2, math.Float64bits(math.NaN()))))
	f.Add(cat(chunk(1, math.MaxInt64), chunk(2, math.Float64bits(1<<63)), chunk(1, math.MaxInt64-600)))
	f.Add(cat(chunk(0, 0), chunk(3, 0x6162), chunk(2, math.Float64bits(math.Inf(1))), chunk(2, 0xfff8000000000001)))
	f.Add(cat(chunk(1, 3), chunk(2, math.Float64bits(3)), chunk(2, math.Float64bits(2.5)), chunk(1, 1<<63)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var vals []Value
		for len(raw) >= 9 && len(vals) < 16 {
			u := binary.LittleEndian.Uint64(raw[1:9])
			switch raw[0] % 4 {
			case 0:
				vals = append(vals, Null())
			case 1:
				vals = append(vals, Int(int64(u)))
			case 2:
				vals = append(vals, Float(math.Float64frombits(u)))
			default:
				vals = append(vals, Str(string(raw[1:1+u%9])))
			}
			raw = raw[9:]
		}
		checkDictOrder(t, vals)
	})
}
