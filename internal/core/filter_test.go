package core

import (
	"math"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

func mkFilter(t *testing.T, src, headSrc string) Filter {
	t.Helper()
	spec, err := datalog.ParseFilter(src)
	if err != nil {
		t.Fatal(err)
	}
	head, err := datalog.ParseRule(headSrc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(spec, head.Head)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFilterTargetResolution(t *testing.T) {
	f := mkFilter(t, "COUNT(answer.B) >= 2", "answer(B) :- r(B)")
	if f.headPos != 0 {
		t.Errorf("headPos = %d", f.headPos)
	}
	f = mkFilter(t, "SUM(answer.W) >= 2", "answer(B,W) :- r(B,W)")
	if f.headPos != 1 {
		t.Errorf("headPos = %d", f.headPos)
	}
	f = mkFilter(t, "COUNT(answer(*)) >= 2", "answer(B) :- r(B)")
	if f.headPos != -1 {
		t.Errorf("star headPos = %d", f.headPos)
	}

	spec, _ := datalog.ParseFilter("COUNT(answer.Z) >= 2")
	head, _ := datalog.ParseRule("answer(B) :- r(B)")
	if _, err := NewFilter(spec, head.Head); err == nil {
		t.Error("unknown target should error")
	}
}

func feed(acc GroupAcc, tuples ...storage.Tuple) {
	for _, tp := range tuples {
		acc.Add(tp)
	}
}

func TestCountAccumulators(t *testing.T) {
	f := mkFilter(t, "COUNT(answer(*)) >= 2", "answer(B) :- r(B)")
	acc := f.NewGroup()
	if acc.Passes() || acc.Done() {
		t.Error("empty group should not pass")
	}
	feed(acc, storage.Tuple{storage.Int(1)})
	if acc.Passes() {
		t.Error("1 < 2 should not pass")
	}
	feed(acc, storage.Tuple{storage.Int(2)})
	if !acc.Passes() || !acc.Done() {
		t.Error("2 >= 2 should pass and be done (monotone)")
	}

	// Distinct counting by column.
	fd := mkFilter(t, "COUNT(answer.B) >= 2", "answer(B,W) :- r(B,W)")
	accd := fd.NewGroup()
	feed(accd,
		storage.Tuple{storage.Int(1), storage.Int(10)},
		storage.Tuple{storage.Int(1), storage.Int(20)}) // same B twice
	if accd.Passes() {
		t.Error("one distinct B should not pass")
	}
	feed(accd, storage.Tuple{storage.Int(2), storage.Int(10)})
	if !accd.Passes() {
		t.Error("two distinct Bs should pass")
	}
}

func TestSumAccumulator(t *testing.T) {
	f := mkFilter(t, "SUM(answer.W) >= 20", "answer(B,W) :- r(B,W)")
	acc := f.NewGroup()
	if acc.Passes() {
		t.Error("SUM over empty must not pass")
	}
	feed(acc, storage.Tuple{storage.Int(1), storage.Int(15)})
	if acc.Passes() || acc.Done() {
		t.Error("15 < 20")
	}
	feed(acc, storage.Tuple{storage.Int(2), storage.Float(5.5)})
	if !acc.Passes() {
		t.Error("20.5 >= 20 should pass")
	}
	if acc.Done() {
		t.Error("SUM must never short-circuit: a later negative weight could fail it")
	}

	// Negative weights break monotonicity: Done must stay false.
	acc2 := f.NewGroup()
	feed(acc2,
		storage.Tuple{storage.Int(1), storage.Int(25)},
		storage.Tuple{storage.Int(2), storage.Int(-10)})
	if acc2.Passes() {
		t.Error("15 < 20 after negative weight")
	}
	acc3 := f.NewGroup()
	feed(acc3, storage.Tuple{storage.Int(1), storage.Int(-1)})
	feed(acc3, storage.Tuple{storage.Int(2), storage.Int(100)})
	if acc3.Done() {
		t.Error("Done must not fire once a negative weight was seen")
	}
	if !acc3.Passes() {
		t.Error("99 >= 20 should still pass")
	}
}

func TestMinMaxAccumulators(t *testing.T) {
	fmin := mkFilter(t, "MIN(answer.W) <= 5", "answer(B,W) :- r(B,W)")
	acc := fmin.NewGroup()
	if acc.Passes() {
		t.Error("MIN over empty must not pass")
	}
	feed(acc, storage.Tuple{storage.Int(1), storage.Int(10)})
	if acc.Passes() {
		t.Error("min 10 > 5")
	}
	feed(acc, storage.Tuple{storage.Int(2), storage.Int(3)})
	if !acc.Passes() || !acc.Done() {
		t.Error("min 3 <= 5 should pass and short-circuit (monotone)")
	}

	fmax := mkFilter(t, "MAX(answer.W) >= 5", "answer(B,W) :- r(B,W)")
	acc2 := fmax.NewGroup()
	feed(acc2, storage.Tuple{storage.Int(1), storage.Int(3)})
	if acc2.Passes() {
		t.Error("max 3 < 5")
	}
	feed(acc2, storage.Tuple{storage.Int(2), storage.Int(7)})
	if !acc2.Passes() || !acc2.Done() {
		t.Error("max 7 >= 5 should pass")
	}

	// Anti-monotone direction: MIN >= never Done.
	fanti := mkFilter(t, "MIN(answer.W) >= 5", "answer(B,W) :- r(B,W)")
	acc3 := fanti.NewGroup()
	feed(acc3, storage.Tuple{storage.Int(1), storage.Int(10)})
	if !acc3.Passes() {
		t.Error("min 10 >= 5 passes")
	}
	if acc3.Done() {
		t.Error("anti-monotone filter must never be Done")
	}
	feed(acc3, storage.Tuple{storage.Int(2), storage.Int(1)})
	if acc3.Passes() {
		t.Error("min 1 >= 5 must fail after more tuples")
	}
}

func TestPassesEmpty(t *testing.T) {
	cases := []struct {
		src   string
		empty bool
	}{
		{"COUNT(answer(*)) >= 1", false},
		{"COUNT(answer(*)) >= 0", true},
		{"COUNT(answer(*)) <= 5", true},
		{"SUM(answer.W) >= 0", false}, // SUM over empty undefined
		{"MIN(answer.W) <= 5", false},
	}
	for _, c := range cases {
		f := mkFilter(t, c.src, "answer(B,W) :- r(B,W)")
		if f.PassesEmpty() != c.empty {
			t.Errorf("%q: PassesEmpty = %v, want %v", c.src, f.PassesEmpty(), c.empty)
		}
	}
}

// TestMonotonePropertyOnAccumulators verifies the §5 property directly:
// for monotone filters, adding tuples never turns Passes from true to
// false.
func TestMonotonePropertyOnAccumulators(t *testing.T) {
	filters := []Filter{
		mkFilter(t, "COUNT(answer(*)) >= 3", "answer(B,W) :- r(B,W)"),
		mkFilter(t, "COUNT(answer.B) >= 3", "answer(B,W) :- r(B,W)"),
		mkFilter(t, "SUM(answer.W) >= 10", "answer(B,W) :- r(B,W)"),
		mkFilter(t, "MIN(answer.W) <= 2", "answer(B,W) :- r(B,W)"),
		mkFilter(t, "MAX(answer.W) >= 9", "answer(B,W) :- r(B,W)"),
	}
	// Non-negative weights only (the §5 precondition for SUM).
	tuples := make([]storage.Tuple, 30)
	for i := range tuples {
		tuples[i] = storage.Tuple{storage.Int(int64(i % 7)), storage.Int(int64(i % 11))}
	}
	for _, f := range filters {
		if !f.Monotone() {
			t.Fatalf("%s should be monotone", f)
		}
		acc := f.NewGroup()
		passed := false
		for _, tp := range tuples {
			acc.Add(tp)
			now := acc.Passes()
			if passed && !now {
				t.Fatalf("%s: Passes went true -> false", f)
			}
			if acc.Done() && !now {
				t.Fatalf("%s: Done with Passes false", f)
			}
			passed = now
		}
	}
}

// TestCountDistinctNaNIsOneValue is the regression for NaN under
// COUNT(answer.X): every NaN is one value, so two NaN heads (of any
// payload) count once — in one accumulator, across a Merge, and through
// the /partial wire form a cluster shard exports.
func TestCountDistinctNaNIsOneValue(t *testing.T) {
	f := mkFilter(t, "COUNT(answer.X) >= 3", "answer(B,X) :- r(B,X)")
	nan := storage.Float(math.NaN())
	nan2 := storage.Float(math.Float64frombits(0xfff8000000000001))
	acc := f.NewGroup()
	feed(acc, storage.Tuple{storage.Int(1), nan}, storage.Tuple{storage.Int(2), nan2}, storage.Tuple{storage.Int(3), storage.Int(7)})
	if got := acc.(*countDistinctAcc).n(); got != 2 {
		t.Fatalf("NaN, NaN, 7 counted %d distinct values, want 2", got)
	}
	if acc.Passes() {
		t.Fatal("two distinct values pass COUNT >= 3")
	}
	other := f.NewGroup()
	feed(other, storage.Tuple{storage.Int(4), nan}, storage.Tuple{storage.Int(5), storage.Float(7)})
	acc.Merge(other)
	if got := acc.(*countDistinctAcc).n(); got != 2 {
		t.Fatalf("merged count %d, want 2", got)
	}
	back := f.importGroupState(exportGroupState(&filterGroup{acc: acc}))
	if got := back.acc.(*countDistinctAcc).n(); got != 2 {
		t.Fatalf("count after the /partial round trip %d, want 2", got)
	}
}
