package storage

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// testDB builds a small mixed-kind database for engine round trips.
func testDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	baskets := NewRelation("baskets", "basket", "item")
	for b := 1; b <= 40; b++ {
		for i := 0; i < 1+(b%4); i++ {
			baskets.InsertValues(Int(int64(b)), Str([]string{"chips", "beer", "diapers", "salsa", "mustard"}[(b+i)%5]))
		}
	}
	db.Add(baskets)
	weights := NewRelation("weights", "item", "weight")
	weights.InsertValues(Str("beer"), Float(1.5))
	weights.InsertValues(Str("chips"), Float(0.5))
	weights.InsertValues(Str("diapers"), Int(2))
	weights.InsertValues(Str("odd\x00name"), Float(math.Pi))
	db.Add(weights)
	return db
}

func drain(t *testing.T, it Iterator) []Tuple {
	t.Helper()
	var out []Tuple
	for {
		batch, err := it.Next(7) // odd batch size to exercise refills
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		for _, tup := range batch {
			out = append(out, tup.Clone())
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func openBoth(t *testing.T, dir string) (*Database, *Database) {
	t.Helper()
	mem, _, err := OpenDir(dir, EngineMemory)
	if err != nil {
		t.Fatal(err)
	}
	disk, _, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	return mem, disk
}

func TestDirRoundTripBothEngines(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	mem, disk, err := func() (*Database, *Database, error) {
		m, _, err := OpenDir(dir, EngineMemory)
		if err != nil {
			return nil, nil, err
		}
		d, _, err := OpenDir(dir, EngineDisk)
		return m, d, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	if !mem.Resident() {
		t.Fatal("memory engine database should be resident")
	}
	if disk.Resident() {
		t.Fatal("disk engine database should not be resident")
	}
	for _, name := range db.Names() {
		orig := db.MustRelation(name)
		msrc, dsrc := mem.MustSource(name), disk.MustSource(name)
		if msrc.Len() != orig.Len() || dsrc.Len() != orig.Len() {
			t.Fatalf("%s: lens %d/%d, want %d", name, msrc.Len(), dsrc.Len(), orig.Len())
		}
		mrows, drows := drain(t, msrc.Scan()), drain(t, dsrc.Scan())
		if !reflect.DeepEqual(mrows, drows) {
			t.Fatalf("%s: scan order differs between engines\nmem:  %v\ndisk: %v", name, mrows, drows)
		}
		// Scan must be sorted (segment order) and equal the original set.
		for i := 1; i < len(drows); i++ {
			if drows[i-1].Compare(drows[i]) >= 0 {
				t.Fatalf("%s: disk scan not in sorted order at %d: %v >= %v", name, i, drows[i-1], drows[i])
			}
		}
		prel, err := dsrc.Pin()
		if err != nil {
			t.Fatal(err)
		}
		if !prel.Equal(orig) {
			t.Fatalf("%s: pinned disk relation differs from original", name)
		}
		// Exact statistics parity across original, memory, and disk.
		for _, col := range orig.Columns() {
			if m, d := msrc.DistinctCount(col), dsrc.DistinctCount(col); m != orig.DistinctCount(col) || d != m {
				t.Fatalf("%s.%s: distinct %d/%d, want %d", name, col, m, d, orig.DistinctCount(col))
			}
			ms, ds := append([]int(nil), msrc.GroupSizes(col)...), append([]int(nil), dsrc.GroupSizes(col)...)
			sort.Ints(ms)
			sort.Ints(ds)
			if !reflect.DeepEqual(ms, ds) {
				t.Fatalf("%s.%s: group sizes differ: %v vs %v", name, col, ms, ds)
			}
		}
	}
}

func TestLookupPrefixBothEngines(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	mem, disk := openBoth(t, dir)
	for _, probe := range []Value{Int(3), Int(12), Int(9999), Float(3)} {
		prefix := Tuple{probe}.AppendSortKey(nil)
		m := drain(t, mem.MustSource("baskets").LookupPrefix(1, prefix))
		d := drain(t, disk.MustSource("baskets").LookupPrefix(1, prefix))
		if !reflect.DeepEqual(m, d) {
			t.Fatalf("probe %v: prefix results differ\nmem:  %v\ndisk: %v", probe, m, d)
		}
		for _, row := range m {
			if !row[0].Equal(probe) {
				t.Fatalf("probe %v: got row %v", probe, row)
			}
		}
		// Cross-check against a full-scan filter.
		want := 0
		for _, row := range drain(t, mem.MustSource("baskets").Scan()) {
			if row[0].Equal(probe) {
				want++
			}
		}
		if len(m) != want {
			t.Fatalf("probe %v: %d rows, want %d", probe, len(m), want)
		}
	}
	// Range scan parity over a middle slice of the key space.
	lo := Tuple{Int(10)}.AppendSortKey(nil)
	hi := Tuple{Int(20)}.AppendSortKey(nil)
	m := drain(t, mem.MustSource("baskets").ScanRange(lo, hi))
	d := drain(t, disk.MustSource("baskets").ScanRange(lo, hi))
	if !reflect.DeepEqual(m, d) {
		t.Fatalf("range results differ\nmem:  %v\ndisk: %v", m, d)
	}
	if len(m) == 0 {
		t.Fatal("range scan returned nothing")
	}
}

func TestDeltaAppendAndReopen(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	_, handle, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	added := []Tuple{
		{Int(900), Str("beer")},
		{Int(900), Str("anchovies")},
	}
	if err := handle.AppendDelta("baskets", added, 7); err != nil {
		t.Fatal(err)
	}

	mem, disk := openBoth(t, dir)
	if mem.Version() != 7 || disk.Version() != 7 {
		t.Fatalf("versions %d/%d, want 7", mem.Version(), disk.Version())
	}
	base := db.MustRelation("baskets").Len()
	for _, d := range []*Database{mem, disk} {
		src := d.MustSource("baskets")
		if src.Len() != base+2 {
			t.Fatalf("len %d, want %d", src.Len(), base+2)
		}
		if !src.Keys().ContainsKey(Tuple{Int(900), Str("anchovies")}.AppendKey(nil)) {
			t.Fatal("delta row not visible through Keys()")
		}
		// Delta rows participate in lookups and statistics.
		rows := drain(t, src.LookupPrefix(1, Tuple{Int(900)}.AppendSortKey(nil)))
		if len(rows) != 2 {
			t.Fatalf("prefix lookup over delta: %d rows, want 2", len(rows))
		}
		if got, want := src.DistinctCount("basket"), db.MustRelation("baskets").DistinctCount("basket")+1; got != want {
			t.Fatalf("distinct baskets %d, want %d", got, want)
		}
	}
	mrows := drain(t, mem.MustSource("baskets").Scan())
	drows := drain(t, disk.MustSource("baskets").Scan())
	if !reflect.DeepEqual(mrows, drows) {
		t.Fatal("scan order differs between engines after delta")
	}
	if got := disk.IO().DeltaRows(); got == 0 {
		t.Fatal("delta-merge rows not counted")
	}
}

func TestWithDeltaCopyOnWrite(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	disk, _, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	src := disk.MustSource("baskets").(*DiskRelation)
	next, added, err := src.WithDelta([]Tuple{
		{Int(1), Str("beer")}, // duplicate of a base row: must be dropped
		{Int(777), Str("beer")},
		{Int(777), Str("beer")}, // duplicate within the batch
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || !added[0].Equal(Tuple{Int(777), Str("beer")}) {
		t.Fatalf("added %v, want just (777, beer)", added)
	}
	if src.Len()+1 != next.Len() {
		t.Fatalf("lens %d -> %d", src.Len(), next.Len())
	}
	if src.Keys().ContainsKey(Tuple{Int(777), Str("beer")}.AppendKey(nil)) {
		t.Fatal("old view sees the new row")
	}
	if !next.Keys().ContainsKey(Tuple{Int(777), Str("beer")}.AppendKey(nil)) {
		t.Fatal("new view misses the new row")
	}
}

func TestSegmentIOCounters(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	disk, handle, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	stats := handle.IO()
	if stats != disk.IO() {
		t.Fatal("database and dir handle disagree on IOStats")
	}
	if stats.SegmentsOpened() != int64(len(db.Names())) {
		t.Fatalf("segments opened %d, want %d", stats.SegmentsOpened(), len(db.Names()))
	}
	before := stats.BytesRead()
	drain(t, disk.MustSource("baskets").Scan())
	if stats.BytesRead() <= before {
		t.Fatal("scan did not count bytes read")
	}
	blocksBefore := stats.IndexBlocksRead()
	drain(t, disk.MustSource("baskets").LookupPrefix(1, Tuple{Int(30)}.AppendSortKey(nil)))
	if stats.IndexBlocksRead() <= blocksBefore {
		t.Fatal("positioned lookup did not count an index block read")
	}
}

func TestHashIndexParityAcrossEngines(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	mem, disk := openBoth(t, dir)
	mix := mem.MustSource("baskets").HashIndex([]int{1}, 1)
	dix := disk.MustSource("baskets").HashIndex([]int{1}, 4)
	var buf []byte
	for _, item := range []Value{Str("beer"), Str("chips"), Str("nope")} {
		var mrows, drows []Tuple
		mrows, buf = mix.Lookup(Tuple{item}, buf)
		drows, _ = dix.Lookup(Tuple{item}, nil)
		if len(mrows) != len(drows) {
			t.Fatalf("%v: %d vs %d rows", item, len(mrows), len(drows))
		}
		for i := range mrows {
			if !mrows[i].Equal(drows[i]) {
				t.Fatalf("%v: bucket order differs at %d: %v vs %v", item, i, mrows[i], drows[i])
			}
		}
	}
}

func TestDictPersistence(t *testing.T) {
	db := testDB(t)
	want := db.Dict()
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	mem, _, err := OpenDir(dir, EngineMemory)
	if err != nil {
		t.Fatal(err)
	}
	got := mem.Dict()
	if got.Len() != want.Len() {
		t.Fatalf("dict len %d, want %d", got.Len(), want.Len())
	}
	for id := 0; id < want.Len(); id++ {
		gv, wv := got.Value(uint32(id)), want.Value(uint32(id))
		if gv.Kind() != wv.Kind() || !gv.Equal(wv) {
			t.Fatalf("dict id %d: %#v vs %#v", id, gv, wv)
		}
	}
	if got.SortedLen() != want.SortedLen() {
		t.Fatalf("persisted dictionary's order-preserved prefix %d, want %d", got.SortedLen(), want.SortedLen())
	}
}

// TestIndexLookupAllocs pins the satellite-3 consolidation: the shared
// keyed-lookup core must keep the byte-key probe at 0 allocs/op on both
// single- and multi-shard indexes.
func TestIndexLookupAllocs(t *testing.T) {
	rel := NewRelation("r", "a", "b")
	for i := 0; i < 4096; i++ {
		rel.InsertValues(Int(int64(i%97)), Int(int64(i)))
	}
	for _, workers := range []int{1, 4} {
		ix := rel.IndexParallel([]int{0}, workers)
		buf := Tuple{Int(13)}.AppendKey(nil)
		key := Tuple{Int(13)}.KeyOn([]int{0})
		if n := testing.AllocsPerRun(200, func() {
			if len(ix.LookupBytes(buf)) == 0 {
				t.Fatal("probe missed")
			}
		}); n != 0 {
			t.Fatalf("LookupBytes(workers=%d): %v allocs/op, want 0", workers, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if len(ix.LookupKey(key)) == 0 {
				t.Fatal("probe missed")
			}
		}); n != 0 {
			t.Fatalf("LookupKey(workers=%d): %v allocs/op, want 0", workers, n)
		}
	}
}
