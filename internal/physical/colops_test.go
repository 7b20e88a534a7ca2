package physical

import (
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// compileRunMode runs the compiled rule on the row path (dict == nil)
// or the columnar path (dict != nil) with identical plans.
func compileRunMode(t *testing.T, db *storage.Database, r *datalog.Rule, order []int, workers int, columnar bool) *storage.Relation {
	t.Helper()
	node, err := CompileRule(db, r, RuleOpts{Order: order, Out: r.Head.Args, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(NewMaterialize("answer", node, nil, "", nil))
	ctx := &Ctx{DB: db, Workers: workers}
	if columnar {
		ctx.Dict = db.Dict()
	}
	rel, err := plan.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestColumnarMatchesRows is the operator-level differential oracle:
// for each rule shape (joins, negation, comparison, constants, repeated
// variables) the columnar ID pipeline must produce the row pipeline's
// answer tuple-for-tuple, in order, at every worker count.
func TestColumnarMatchesRows(t *testing.T) {
	db := testDB()
	cases := []struct {
		name  string
		rule  string
		order []int
	}{
		{"chain", "answer(X,Z) :- e(X,Y) AND e(Y,Z)", []int{0, 1}},
		{"triangle", "answer(X,Y,Z) :- e(X,Y) AND e(Y,Z) AND e(Z,X)", []int{0, 1, 2}},
		{"neg-cmp", "answer(X,Y) :- e(X,Y) AND NOT blocked(Y) AND X < Y", []int{0}},
		{"const", "answer(Y) :- e(1,Y)", []int{0}},
		{"label-join", "answer(X,L) :- e(X,Y) AND l(Y,L)", []int{0, 1}},
		{"self-loop", "answer(X) :- e(X,X)", []int{0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := mustRule(t, c.rule)
			row := compileRunMode(t, db, r, c.order, 1, false)
			for _, w := range []int{1, 2, 8} {
				col := compileRunMode(t, db, r, c.order, w, true)
				if col.Dump() != row.Dump() {
					t.Fatalf("workers=%d columnar answer differs\ncolumnar:\n%s\nrows:\n%s", w, col.Dump(), row.Dump())
				}
			}
		})
	}
}

// TestColumnarMissingConstant covers the dictionary-miss path: a query
// constant absent from every stored relation matches nothing, without
// interning the constant into the dictionary.
func TestColumnarMissingConstant(t *testing.T) {
	db := testDB()
	dictLen := db.Dict().Len()
	for _, src := range []string{
		"answer(Y) :- e(99,Y)",                             // dead scan constant
		"answer(X,Y) :- l(X,L) AND e(X,Y) AND L = \"zzz\"", // dead comparison constant
		"answer(X,Y) :- e(X,Y) AND NOT blocked(99)",        // negated const: never a member, keep all
	} {
		r := mustRule(t, src)
		order := make([]int, len(r.PositiveAtoms()))
		for i := range order {
			order[i] = i
		}
		row := compileRunMode(t, db, r, order, 1, false)
		col := compileRunMode(t, db, r, order, 1, true)
		if col.Dump() != row.Dump() {
			t.Fatalf("%s: columnar differs\ncolumnar:\n%s\nrows:\n%s", src, col.Dump(), row.Dump())
		}
	}
	if db.Dict().Len() != dictLen {
		t.Fatalf("query constants grew the dictionary: %d -> %d", dictLen, db.Dict().Len())
	}
}

// TestColumnarCrossKindDup pins repeated-variable semantics: dup checks
// use Equal, the same equality class AppendKey gives the joins, so a
// tuple pairing Int(1) with Float(1) satisfies e(X,X) in both paths
// (the two values share a dictionary ID and a join key). This replaced
// an earlier deliberate kind-sensitive == — which made e(X,X) disagree
// with the equivalent self-join — see TestCrossKindRepeatedVariable in
// internal/eval.
func TestColumnarCrossKindDup(t *testing.T) {
	db := storage.NewDatabase()
	e := storage.NewRelation("e", "a", "b")
	e.InsertValues(storage.Int(1), storage.Float(1))
	e.InsertValues(storage.Int(2), storage.Int(2))
	e.InsertValues(storage.Int(3), storage.Int(4))
	db.Add(e)
	r := mustRule(t, "answer(X) :- e(X,X)")
	row := compileRunMode(t, db, r, []int{0}, 1, false)
	col := compileRunMode(t, db, r, []int{0}, 1, true)
	if col.Dump() != row.Dump() {
		t.Fatalf("columnar dup check differs\ncolumnar:\n%s\nrows:\n%s", col.Dump(), row.Dump())
	}
	if row.Len() != 2 {
		t.Fatalf("want the Int(1)/Float(1) and Int(2) rows, got:\n%s", row.Dump())
	}
}

// streamRun compiles a rule with one atom streamed from a producer
// pipeline and runs it in the requested mode.
func streamRun(t *testing.T, db *storage.Database, rule string, order []int, streams map[string]Node, workers int, columnar bool) *storage.Relation {
	t.Helper()
	r := mustRule(t, rule)
	node, err := CompileRule(db, r, RuleOpts{Order: order, Out: r.Head.Args, Dedup: true, Streams: streams})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(NewMaterialize("answer", node, nil, "", nil))
	ctx := &Ctx{DB: db, Workers: workers}
	if columnar {
		ctx.Dict = db.Dict()
	}
	rel, err := plan.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// producerNode compiles "hop(X,Z) :- e(X,Y) AND e(Y,Z)" as a stream
// pipeline (deduplicated two-step paths).
func producerNode(t *testing.T, db *storage.Database) Node {
	t.Helper()
	r := mustRule(t, "hop(X,Z) :- e(X,Y) AND e(Y,Z)")
	node, err := CompileRule(db, r, RuleOpts{Order: []int{0, 1}, Out: r.Head.Args, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// TestSymJoinMatchesStoredJoin checks the symmetric hash join against
// the oracle of materializing the streamed predicate first: same
// answer set in both executors at every worker count, and the row and
// columnar fused pipelines agree tuple-for-tuple.
func TestSymJoinMatchesStoredJoin(t *testing.T) {
	db := testDB()
	// Oracle: materialize hop, then join as a stored relation.
	hopAnswer := compileRunMode(t, db, mustRule(t, "hop(X,Z) :- e(X,Y) AND e(Y,Z)"), []int{0, 1}, 1, false)
	hop := storage.NewRelation("hop", "X", "Z")
	for _, tp := range hopAnswer.Tuples() {
		hop.Insert(tp)
	}
	oracleDB := db.Clone()
	oracleDB.Add(hop)
	oracle := compileRun(t, oracleDB, mustRule(t, "answer(A,B,L) :- hop(A,B) AND l(B,L)"), []int{0, 1}, 1)

	// The rule consumes hop as a stream. Order {1, 0} binds l first, so
	// the streamed atom joins symmetrically (not as pipeline source).
	const rule = "answer(A,B,L) :- hop(A,B) AND l(B,L)"
	db.Add(storage.NewRelation("hop", "A", "B")) // stand-in for order resolution
	var rowBase string
	for _, order := range [][]int{{1, 0}, {0, 1}} {
		for _, w := range []int{1, 2, 8} {
			row := streamRun(t, db, rule, order, map[string]Node{"hop": producerNode(t, db)}, w, false)
			col := streamRun(t, db, rule, order, map[string]Node{"hop": producerNode(t, db)}, w, true)
			if !row.Equal(oracle) {
				t.Fatalf("order=%v workers=%d fused row answer differs from stored-join oracle\ngot:\n%s\nwant:\n%s",
					order, w, row.Dump(), oracle.Dump())
			}
			if col.Dump() != row.Dump() {
				t.Fatalf("order=%v workers=%d columnar symjoin differs from row symjoin\ncolumnar:\n%s\nrows:\n%s",
					order, w, col.Dump(), row.Dump())
			}
			if order[0] == 1 {
				if rowBase == "" {
					rowBase = row.Dump()
				} else if row.Dump() != rowBase {
					t.Fatalf("workers=%d symjoin emission order changed", w)
				}
			}
		}
	}
}

// TestSymJoinExplain checks the fused plan renders the symjoin node.
func TestSymJoinExplain(t *testing.T) {
	db := testDB()
	db.Add(storage.NewRelation("hop", "A", "B"))
	r := mustRule(t, "answer(A,B,L) :- hop(A,B) AND l(B,L)")
	node, err := CompileRule(db, r, RuleOpts{Order: []int{1, 0}, Out: r.Head.Args, Dedup: true,
		Streams: map[string]Node{"hop": producerNode(t, db)}})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(NewMaterialize("answer", node, nil, "", nil))
	if explain := plan.Explain(); !containsLine(explain, "symjoin") {
		t.Fatalf("EXPLAIN missing symjoin node:\n%s", explain)
	}
}

func containsLine(s, substr string) bool {
	for i := 0; i+len(substr) <= len(s); i++ {
		if s[i:i+len(substr)] == substr {
			return true
		}
	}
	return false
}

// TestStreamedAtomRejectsConstants pins joinStream's argument rules.
func TestStreamedAtomRejectsConstants(t *testing.T) {
	db := testDB()
	db.Add(storage.NewRelation("hop", "A", "B"))
	for _, bad := range []string{
		"answer(B) :- hop(1,B)", // constant argument
		"answer(A) :- hop(A,A)", // repeated variable
	} {
		r := mustRule(t, bad)
		_, err := CompileRule(db, r, RuleOpts{Order: []int{0}, Out: r.Head.Args,
			Streams: map[string]Node{"hop": producerNode(t, db)}})
		if err == nil {
			t.Fatalf("%s: streamed atom should be rejected", bad)
		}
	}
}

// TestColumnarSelectByID drives the select operator's ID comparison: the
// streamed atom is the pipeline source, so its comparison is a select
// over binding columns. Every operator runs on the built database and
// on a clone whose new edges are interned past the dictionary's
// order-preserved prefix, with a constant absent from the data as well.
func TestColumnarSelectByID(t *testing.T) {
	base := testDB()
	sorted := base.Dict().SortedLen()
	mutated := base.Clone()
	e := base.MustRelation("e").Clone()
	e.InsertValues(storage.Int(9), storage.Float(2.5))
	e.InsertValues(storage.Float(2.5), storage.Int(1))
	e.InsertValues(storage.Int(3), storage.Int(9))
	mutated.Add(e)
	if id := mutated.Dict().Intern(storage.Float(2.5)); id < sorted {
		t.Fatalf("new value got ID %d inside the order-preserved prefix %d", id, sorted)
	}
	for name, db := range map[string]*storage.Database{"built": base, "mutated": mutated} {
		db.Add(storage.NewRelation("hop", "A", "B")) // stand-in for order resolution
		for _, op := range []string{"<", "<=", ">", ">=", "=", "!="} {
			for _, rule := range []string{
				"answer(A,B) :- hop(A,B) AND A " + op + " B",
				"answer(A,B) :- hop(A,B) AND A " + op + " 2.75",
			} {
				streams := func() map[string]Node { return map[string]Node{"hop": producerNode(t, db)} }
				node, err := CompileRule(db, mustRule(t, rule), RuleOpts{Order: []int{0}, Out: mustRule(t, rule).Head.Args, Streams: streams()})
				if err != nil {
					t.Fatal(err)
				}
				if explain := NewPlan(node).Explain(); !containsLine(explain, "select") {
					t.Fatalf("%s: no select operator:\n%s", rule, explain)
				}
				row := streamRun(t, db, rule, []int{0}, streams(), 1, false)
				for _, w := range []int{1, 2, 8} {
					col := streamRun(t, db, rule, []int{0}, streams(), w, true)
					if col.Dump() != row.Dump() {
						t.Fatalf("%s %s workers=%d: columnar select differs\ncolumnar:\n%s\nrows:\n%s", name, rule, w, col.Dump(), row.Dump())
					}
				}
			}
		}
	}
}
