package main

import (
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// engineAnswer evaluates src with the default (columnar) engine.
func engineAnswer(t *testing.T, db *storage.Database, src string) string {
	t.Helper()
	f, err := core.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, tup := range rel.Tuples() {
		var r []string
		for _, v := range tup {
			r = append(r, v.String())
		}
		rows = append(rows, r)
	}
	return canonRows(rows)
}

// TestLegacyOracleTracksAppends applies exhibits batches and compares the
// incrementally kept answers with the engine over the same data.
func TestLegacyOracleTracksAppends(t *testing.T) {
	ws := medicalServe()
	db := workload.Medical(workload.DefaultMedical(400, 3))
	orc, err := newLegacyOracle(db, ws)
	if err != nil {
		t.Fatal(err)
	}
	served := db.Clone()
	exhibits := db.MustRelation("exhibits").Clone()
	served.Add(exhibits)
	pool := exhibitPool(db, 3, 0, 1)
	for round := 0; round < 4; round++ {
		rows := pool.take(15)
		if err := orc.apply("exhibits", rows); err != nil {
			t.Fatal(err)
		}
		for _, tup := range parseRows(rows) {
			if !exhibits.Insert(tup) {
				t.Fatalf("pool row %v is not fresh", tup)
			}
		}
		for _, id := range []string{"fig3", "md"} {
			for _, th := range []int{2, 5} {
				want := engineAnswer(t, served, ws.checked[id](th))
				got, err := orc.answer(id, th)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("round %d %s t=%d: oracle %q, engine %q", round, id, th, got, want)
				}
			}
		}
	}
	if err := orc.finalCheck(map[string][]int{"fig3": {2, 5}, "md": {2}}); err != nil {
		t.Error(err)
	}
	if n := orc.rowCounts()["exhibits"]; n != exhibits.Len() {
		t.Errorf("mirror has %d exhibits, want %d", n, exhibits.Len())
	}
}

func TestAprioriOracleMatchesEngine(t *testing.T) {
	ws := wordsAdhoc()
	db := workload.Words(150, 900, 15, 5)
	orc, err := newAprioriOracle(db, ws)
	if err != nil {
		t.Fatal(err)
	}
	served := db.Clone()
	baskets := db.MustRelation("baskets").Clone()
	served.Add(baskets)
	next := ws.newClient(db, 5, 0)
	for i := 0; i < 9; i++ {
		req := next()
		if req.Kind == "mutate" {
			if err := orc.apply(req.Rel, req.Rows); err != nil {
				t.Fatal(err)
			}
			for _, tup := range parseRows(req.Rows) {
				baskets.Insert(tup)
			}
			continue
		}
		for _, th := range []int{3, 8} {
			want := engineAnswer(t, served, ws.checked[req.Flock](th))
			got, err := orc.answer(req.Flock, th)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("request %d %s t=%d: oracle %q, engine %q", i, req.Flock, th, got, want)
			}
		}
	}
	if err := orc.finalCheck(map[string][]int{"pairs": {3, 8}}); err != nil {
		t.Error(err)
	}
}
