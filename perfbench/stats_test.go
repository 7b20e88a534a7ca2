package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"queryflocks/internal/obs"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: Percentile must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	p, err := Percentile(seq(100), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 90 || p.N != 100 || p.Beyond != 10 {
		t.Errorf("p90 of 1..100 = %+v, want value 90, n 100, 10 beyond", p)
	}
	p, err = Percentile(seq(101), 0.5)
	if err != nil || p.Value != 51 || p.Beyond != 50 {
		t.Errorf("p50 of 1..101 = %+v, %v; want 51 with 50 beyond", p, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{0, 0.5, false},
		{19, 0.5, false}, // rank 10, 9 beyond
		{20, 0.5, true},
		{99, 0.9, false}, // rank 90, 9 beyond
		{100, 0.9, true},
		{1000, 0.99, true},
		{999, 0.99, false},
	} {
		_, err := Percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("n=%d q=%g: err=%v, want ok=%v", tc.n, tc.q, err, tc.ok)
		}
	}
	if _, err := Percentile(seq(10), 1.5); err == nil {
		t.Error("quantile above 1 accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %g", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("median of nothing = %g", m)
	}
}

func TestRatioCarriesBase(t *testing.T) {
	r := Ratio{Num: 3, Base: 4}
	if r.Value() != 0.75 || r.String() != "0.7500 (3/4)" {
		t.Errorf("3/4 = %g %q", r.Value(), r.String())
	}
	z := Ratio{Num: 0, Base: 0}
	if z.Value() != 0 || z.String() != "n/a (base 0)" {
		t.Errorf("0/0 = %g %q", z.Value(), z.String())
	}
}

// fixedReport is a direct run whose extended answer missed the memo
// (scan, project, materialize, then the memo's group-by, whose wall
// covers them), one compiled-plan group operator in a later step, and a
// dynamic decision.
func fixedReport() *obs.RunReport {
	ms := time.Millisecond
	return &obs.RunReport{Steps: []obs.Event{
		{Op: obs.OpScan, ID: 2, RowsOut: 100, Wall: 1 * ms, IDBatches: 2},
		{Op: obs.OpProject, ID: 1, RowsIn: 100, RowsOut: 90, Wall: 2 * ms, IDBatches: 2},
		{Op: obs.OpMaterialize, ID: 3, RowsIn: 90, RowsOut: 90, Wall: 3 * ms, BoxedBatches: 1},
		{Op: obs.OpGroup, RowsIn: 90, RowsOut: 4, Groups: 30, Wall: 10 * ms},
		{Op: obs.OpStep, Desc: "ok1", RowsOut: 4, Wall: 11 * ms},
		{Op: obs.OpJoin, ID: 2, RowsIn: 4, RowsOut: 40, Wall: 5 * ms, IDBatches: 1},
		{Op: obs.OpGroup, ID: 1, RowsIn: 40, RowsOut: 2, Groups: 10, Wall: 7 * ms, IDBatches: 1},
		{Op: obs.OpStep, Desc: "answer", RowsOut: 2, Wall: 13 * ms},
		{Op: obs.OpDecision, Filtered: true},
		{Op: obs.OpDecision},
		{Op: obs.OpView, Wall: 50 * ms},
	}}
}

func TestAggregateOpsPinned(t *testing.T) {
	ms := time.Millisecond
	w := AggregateOps(fixedReport())
	want := map[obs.Op]time.Duration{
		obs.OpScan: 1 * ms, obs.OpProject: 2 * ms, obs.OpMaterialize: 3 * ms,
		obs.OpJoin: 5 * ms,
		// 10ms memo group-by minus the 6ms plan it ran, plus 7ms in-plan.
		obs.OpGroup: 4*ms + 7*ms,
	}
	for op, d := range want {
		if w.Self[op] != d {
			t.Errorf("self[%s] = %v, want %v", op, w.Self[op], d)
		}
	}
	if len(w.Self) != len(want) {
		t.Errorf("self times for %d kinds, want %d: %v", len(w.Self), len(want), w.Self)
	}
	if w.GroupRowsIn != 130 || w.Groups != 40 || w.Survivors != 6 {
		t.Errorf("group work = %d rows in, %d groups, %d survivors; want 130, 40, 6", w.GroupRowsIn, w.Groups, w.Survivors)
	}
	if w.IDBatches != 6 || w.BoxedBatches != 1 {
		t.Errorf("batches = %d id, %d boxed; want 6, 1", w.IDBatches, w.BoxedBatches)
	}
	if w.Decisions != 2 || w.Filtered != 1 {
		t.Errorf("decisions = %d (%d filtered), want 2 (1)", w.Decisions, w.Filtered)
	}
	if AggregateOps(nil).Groups != 0 {
		t.Error("nil report has work")
	}
}

func TestSelfTimes(t *testing.T) {
	ns := time.Duration(1)
	spans := []Span{
		{ID: 1, Req: 1, Name: "flockd.query", Start: 0, End: 100 * ns},
		{ID: 2, Parent: 1, Req: 1, Name: "datalog.parse", Start: 10 * ns, End: 20 * ns},
		{ID: 3, Parent: 1, Req: 1, Name: "core.eval", Start: 30 * ns, End: 90 * ns},
		{ID: 4, Parent: 3, Req: 1, Name: "physical.group", Start: 30 * ns, End: 70 * ns, Derived: true},
		{ID: 5, Parent: 3, Req: 1, Name: "physical.scan", Start: 60 * ns, End: 80 * ns, Derived: true}, // overlaps group
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{
		"flockd.query": 30 * ns, "datalog.parse": 10 * ns, "core.eval": 10 * ns,
		"physical.group": 40 * ns, "physical.scan": 20 * ns,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
	if RootTime(spans) != 100*ns {
		t.Errorf("root time = %v", RootTime(spans))
	}
	if Layer("physical.group") != "physical" {
		t.Error("layer of physical.group")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	tr.BeginRequest("flockd.query")
	tr.Begin("core.eval")
	tr.End()
	tr.DeriveLast([]string{"physical.scan"}, []time.Duration{0})
	tr.End()
	s := tr.Spans()
	if len(s) != 3 || s[1].Parent != s[0].ID || s[2].Parent != s[1].ID || !s[2].Derived || s[2].Req != 1 {
		t.Fatalf("spans = %+v", s)
	}
	var nilTr *Tracer
	nilTr.BeginRequest("x")
	nilTr.Begin("y")
	nilTr.End()
	if nilTr.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric tables the
// command reports from in step.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		code []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the command %d", len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			d := c.code[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: file %v, command %+v", i, m, d)
			}
		}
	}
}
