package planner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
)

// idPathDB is a small database whose item column mixes every ordering
// hazard of the columnar ID paths: Int/Float aliases of one value, an
// Int/Float pair that float64 rounds onto one image, NaN, negative
// numbers and strings. w(D, W) carries signed numeric weights.
func idPathDB() *storage.Database {
	items := []storage.Value{
		storage.Int(1), storage.Float(1.5), storage.Int(2), storage.Float(2), storage.Int(-3),
		storage.Str("a"), storage.Str("b"), storage.Float(math.NaN()),
		storage.Int(1<<53 + 1), storage.Float(1 << 53), storage.Float(math.Inf(1)),
	}
	rng := rand.New(rand.NewSource(12))
	r := storage.NewRelation("r", "D", "X", "W")
	w := storage.NewRelation("w", "D", "W")
	for d := 0; d < 24; d++ {
		for k := 0; k < 5; k++ {
			r.Insert(storage.Tuple{storage.Int(int64(d)), items[rng.Intn(len(items))], storage.Int(int64(rng.Intn(4)))})
		}
		weight := storage.Float(float64(rng.Intn(9)-3) / 2)
		if d%3 == 0 {
			weight = storage.Int(int64(rng.Intn(5)))
		}
		w.Insert(storage.Tuple{storage.Int(int64(d)), weight})
	}
	db := storage.NewDatabase()
	db.Add(r)
	db.Add(w)
	return db
}

// mutatedIDPathDB clones db after its dictionary is built and appends
// rows whose values the build never saw, so they are interned past the
// order-preserved prefix — the /mutate shape.
func mutatedIDPathDB(t *testing.T, db *storage.Database) *storage.Database {
	t.Helper()
	sorted := db.Dict().SortedLen()
	clone := db.Clone()
	next := db.MustRelation("r").Clone()
	for d := 20; d < 30; d++ {
		for _, x := range []storage.Value{storage.Str("ab"), storage.Float(1.25), storage.Int(1<<53 + 2), storage.Int(2), storage.Str("a")} {
			next.Insert(storage.Tuple{storage.Int(int64(d)), x, storage.Int(int64(d % 3))})
		}
	}
	clone.Add(next)
	if id := clone.Dict().Intern(storage.Str("ab")); id < sorted {
		t.Fatalf("mutated value got ID %d inside the order-preserved prefix %d", id, sorted)
	}
	return clone
}

// TestIDPathsMatchOracles is the differential test of the columnar ID
// paths — integer ID comparison and ID-keyed grouping with the plain
// COUNT counter — against the row executor and the materializing
// executor, at workers 1, 2 and 8, on the base database and on a clone
// holding values interned after the dictionary build. The columnar run
// must also keep the row path's peak buffered-tuple gauge.
func TestIDPathsMatchOracles(t *testing.T) {
	type flock struct{ name, src string }
	var flocks []flock
	for _, op := range []string{"<", "<=", ">", ">=", "=", "!="} {
		flocks = append(flocks,
			// Binding column ($1) against the joined base column ($2).
			flock{"cur-base " + op, "answer(D) :- r(D,$1,W) AND r(D,$2,V) AND $1 " + op + " $2\nFILTER:\nCOUNT(answer.D) >= 2"},
			// Two base columns of one scanned atom.
			flock{"base-base " + op, "answer(D) :- r(D,$1,W) AND W " + op + " $1\nFILTER:\nCOUNT(*) >= 1"},
			// A binding-only comparison after both atoms are joined.
			flock{"cur-cur " + op, "answer(D) :- r(D,$1,W) AND w(D,U) AND r(D,$2,V) AND U " + op + " W\nFILTER:\nCOUNT(answer.D) >= 2"},
			// A query constant absent from the data.
			flock{"const " + op, "answer(D) :- r(D,$1,W) AND $1 " + op + " 1.75\nFILTER:\nCOUNT(*) >= 2"},
		)
	}
	flocks = append(flocks,
		flock{"count-star 2-col head", "answer(D,W) :- r(D,$1,W) AND r(D,$2,V) AND $1 < $2\nFILTER:\nCOUNT(*) >= 3"},
		flock{"count-col 2-col head", "answer(D,W) :- r(D,$1,W) AND r(D,$2,V) AND $1 < $2\nFILTER:\nCOUNT(answer.D) >= 2"},
		flock{"count non-monotone", "answer(D) :- r(D,$1,W) AND r(D,$2,V) AND $1 < $2\nFILTER:\nCOUNT(answer.D) = 2"},
		flock{"sum", "answer(D,U) :- r(D,$1,W) AND w(D,U)\nFILTER:\nSUM(answer.U) >= 1"},
		flock{"min", "answer(D,U) :- r(D,$1,W) AND w(D,U)\nFILTER:\nMIN(answer.U) <= 0"},
		flock{"max", "answer(D,U) :- r(D,$1,W) AND r(D,$2,V) AND w(D,U) AND $1 != $2\nFILTER:\nMAX(answer.U) >= 1"},
		flock{"3 params", "answer(D) :- r(D,$1,W) AND r(D,$2,V) AND r(D,$3,U) AND $1 < $2 AND $2 < $3\nFILTER:\nCOUNT(answer.D) >= 2"},
		flock{"3 params 2-col head", "answer(D,W) :- r(D,$1,W) AND r(D,$2,V) AND r(D,$3,U) AND $1 <= $2 AND $2 != $3\nFILTER:\nCOUNT(*) >= 2"},
	)
	base := idPathDB()
	dbs := map[string]*storage.Database{"built": base, "mutated": mutatedIDPathDB(t, base)}
	for _, dbName := range []string{"built", "mutated"} {
		db := dbs[dbName]
		for _, fl := range flocks {
			t.Run(dbName+"/"+fl.name, func(t *testing.T) {
				f, err := core.Parse("QUERY:\n" + fl.src + "\n")
				if err != nil {
					t.Fatal(err)
				}
				run := func(workers int, exec eval.ExecMode) (*storage.Relation, int) {
					tr := &eval.Trace{}
					rel, err := f.Eval(db, &core.EvalOptions{Workers: workers, Exec: exec, Trace: tr})
					if err != nil {
						t.Fatalf("%v workers=%d: %v", exec, workers, err)
					}
					return rel, tr.Report("direct", workers, rel.Len()).PeakTuples
				}
				mat, _ := run(1, eval.ExecMaterialize)
				for _, w := range []int{1, 2, 8} {
					col, colPeak := run(w, eval.ExecStream)
					rows, rowsPeak := run(w, eval.ExecStreamRows)
					if col.Dump() != rows.Dump() {
						t.Fatalf("workers=%d: columnar answer differs from rows\ncolumnar:\n%s\nrows:\n%s", w, col.Dump(), rows.Dump())
					}
					if !col.Equal(mat) {
						t.Fatalf("workers=%d: columnar answer differs from materialize\ncolumnar:\n%s\nmaterialize:\n%s", w, col.Dump(), mat.Dump())
					}
					if colPeak != rowsPeak {
						t.Fatalf("workers=%d: columnar peak %d tuples, rows %d", w, colPeak, rowsPeak)
					}
				}
				if dbName == "built" && fl.name == "cur-base <" && mat.Len() == 0 {
					t.Fatal("the pair flock passes no group; the oracle compares nothing")
				}
			})
		}
	}
}

// TestIDPathsDynamicMatchOracles runs the dynamic strategy, whose
// barriers re-stream materialized tuples, over the same hazards: the
// streaming executors must agree tuple for tuple, and the materializing
// executor as a set.
func TestIDPathsDynamicMatchOracles(t *testing.T) {
	base := idPathDB()
	for name, db := range map[string]*storage.Database{"built": base, "mutated": mutatedIDPathDB(t, base)} {
		for _, op := range []string{"<", ">=", "!="} {
			src := fmt.Sprintf("QUERY:\nanswer(D) :- r(D,$1,W) AND r(D,$2,V) AND w(D,U) AND $1 %s $2 AND U %s W\nFILTER:\nCOUNT(answer.D) >= 2\n", op, op)
			f, err := core.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			mat, err := EvalDynamic(db, f, &DynamicOptions{Workers: 1, Exec: eval.ExecMaterialize})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 8} {
				col, err := EvalDynamic(db, f, &DynamicOptions{Workers: w, Exec: eval.ExecStream})
				if err != nil {
					t.Fatal(err)
				}
				rows, err := EvalDynamic(db, f, &DynamicOptions{Workers: w, Exec: eval.ExecStreamRows})
				if err != nil {
					t.Fatal(err)
				}
				if col.Answer.Dump() != rows.Answer.Dump() || !col.Answer.Equal(mat.Answer) {
					t.Fatalf("%s %s workers=%d: answers differ\ncolumnar:\n%s\nrows:\n%s\nmaterialize:\n%s",
						name, op, w, col.Answer.Dump(), rows.Answer.Dump(), mat.Answer.Dump())
				}
			}
		}
	}
}

// TestExactCompareAnswers is the end-to-end regression for the exact
// value order: Int(2^53+1) is above Float(2^53) although float64 rounds
// one onto the other, and NaN is above every number. Before the order
// was exact, both comparisons were false and the answer was empty. The
// answer must be the same under every executor.
func TestExactCompareAnswers(t *testing.T) {
	r := storage.NewRelation("r", "D", "X", "W")
	for d, x := range []storage.Value{
		storage.Int(1<<53 + 1), storage.Float(math.NaN()), storage.Float(1 << 53), storage.Int(5), storage.Float(math.Inf(1)),
	} {
		r.Insert(storage.Tuple{storage.Int(int64(d)), x, storage.Int(0)})
	}
	db := storage.NewDatabase()
	db.Add(r)
	f, err := core.Parse("QUERY:\nanswer(D) :- r(D,$1,W) AND r(E,$2,V) AND $1 > $2 AND $2 = 9007199254740992.0\nFILTER:\nCOUNT(answer.D) >= 1\n")
	if err != nil {
		t.Fatal(err)
	}
	const want = "flock($1, $2):\n" +
		"  (9007199254740993, 9.007199254740992e+15)\n" +
		"  (+Inf, 9.007199254740992e+15)\n" +
		"  (NaN, 9.007199254740992e+15)\n"
	for _, exec := range []eval.ExecMode{eval.ExecStream, eval.ExecStreamRows, eval.ExecMaterialize} {
		got, err := f.Eval(db, &core.EvalOptions{Workers: 1, Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		if dump := got.Dump(); dump != want {
			t.Fatalf("%v: answer\n%s\nwant\n%s", exec, dump, want)
		}
	}
}
