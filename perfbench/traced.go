package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"queryflocks/internal/storage"
)

// traced runs the closed loop for half the measuring time (for flockd's
// overhead beside its own wall time), then replays the completed request
// sequence in-process: spans off, spans on, spans off again. It derives
// the per-layer metrics from the spans. Each replay takes about as long
// as the loop.
func (b *bench) traced() error {
	defer b.stop()
	b.base = filepath.Join(b.work, "base")
	if err := storage.CreateDir(b.base, b.db); err != nil {
		return err
	}
	h, results, _, err := b.serveRun(time.Duration(b.o.seconds) * time.Second / 2)
	if err != nil {
		return err
	}
	h.close()
	b.stop()
	v, err := b.check(results)
	if err != nil {
		return err
	}

	reqs := make([]request, len(results))
	var overhead []float64
	var e2e time.Duration
	for i, r := range results {
		reqs[i] = r.req
		e2e += r.lat
		if r.ok() && r.req.Kind != "mutate" {
			overhead = append(overhead, float64(r.lat.Nanoseconds()-r.wallNs)/1e6)
		}
	}
	engine, err := storage.ParseEngine(b.ws.engine)
	if err != nil {
		return err
	}
	runReplay := func(name string, tr *Tracer) (*replayRun, int64, error) {
		dir := filepath.Join(b.work, name)
		if err := copyDir(b.base, dir); err != nil {
			return nil, 0, err
		}
		before, err := dirSize(dir)
		if err != nil {
			return nil, 0, err
		}
		run, err := replay(dir, engine, b.ws.prepared, reqs, tr)
		if err != nil {
			return nil, 0, err
		}
		after, err := dirSize(dir)
		return run, after - before, err
	}
	// Spans-off replays before and after the spans-on one, so warm-up
	// and heap growth do not read as tracing cost.
	off, grown, err := runReplay("replay-off", nil)
	if err != nil {
		return err
	}
	tr := NewTracer()
	on, _, err := runReplay("replay-on", tr)
	if err != nil {
		return err
	}
	off2, _, err := runReplay("replay-off2", nil)
	if err != nil {
		return err
	}
	if errs := off.errs + on.errs + off2.errs; errs > 0 {
		v.ok = false
		v.note("replay: %d requests failed", errs)
	}
	var loads []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, _, err := storage.OpenDir(b.base, engine); err != nil {
			return err
		}
		loads = append(loads, float64(time.Since(t0).Nanoseconds())/1e6)
	}

	spans := tr.Spans()
	traceDir := filepath.Join(b.o.buildDir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", b.ws.name, b.o.seed))
	if err := tr.WriteJSONL(tracePath); err != nil {
		return err
	}

	rp := off.rp
	evalN, mutN := float64(max(rp.evalReqs, 1)), float64(max(rp.mutReqs, 1))
	self := SelfTimes(spans)
	var evalIncl time.Duration
	for _, s := range spans {
		if s.Name == "core.eval" {
			evalIncl += s.End - s.Start
		}
	}
	per := func(d time.Duration, n float64, unit time.Duration) float64 {
		return float64(d) / float64(unit) / n
	}
	// The HTTP/JSON share is a median of per-request differences, so a
	// slow stretch in one run does not read as flockd's own time.
	offTotal, onTotal := (sum(off.durs)+sum(off2.durs))/2, sum(on.durs)
	httpShare := make([]float64, len(reqs))
	for i, r := range results {
		httpShare[i] = float64((r.lat - (off.durs[i]+off2.durs[i])/2).Nanoseconds()) / 1e6
	}
	var selfTotal time.Duration
	for _, d := range self {
		selfTotal += d
	}
	ps, ms := rp.plans.Stats(), rp.memo.Stats()
	ratios := map[string]Ratio{
		"serve.plan_hit_ratio":         {float64(ps.Hits), float64(ps.Hits + ps.Misses)},
		"serve.memo_ext_hit_ratio":     {float64(ms.ExtHits), float64(ms.ExtHits + ms.ExtMisses)},
		"serve.memo_surv_hit_ratio":    {float64(ms.SurvHits), float64(ms.SurvHits + ms.SurvMiss)},
		"planner.dynamic_filter_ratio": {float64(rp.work.Filtered), float64(rp.work.Decisions)},
		"core.filter_survival":         {float64(rp.work.Survivors), float64(rp.work.Groups)},
		"physical.id_batch_share":      {float64(rp.work.IDBatches), float64(rp.work.IDBatches + rp.work.BoxedBatches)},
		"storage.write_amp":            {float64(grown), float64(rp.csvBytes)},
		"runtime.gc_cpu_fraction":      {off.gcFrac, 1},
		"trace.self_time_share":        {float64(selfTotal), float64(onTotal)},
	}
	vals := map[string]float64{
		"flockd.overhead_ms":        Median(overhead),
		"flockd.http_json_ms":       Median(httpShare),
		"datalog.parse_us":          per(self["datalog.parse"], evalN, time.Microsecond),
		"analysis.lint_us":          per(self["analysis.lint"], evalN, time.Microsecond),
		"analysis.canon_us":         per(self["analysis.canon"], evalN, time.Microsecond),
		"serve.plan_evictions":      float64(ps.Evictions),
		"serve.memo_evictions":      float64(ms.Evictions),
		"serve.memo_mb":             float64(ms.Bytes) / (1 << 20),
		"planner.plan_ms":           per(self["planner.plan"], evalN, time.Millisecond),
		"core.check_us":             per(self["core.check"], evalN, time.Microsecond),
		"core.eval_ms":              per(evalIncl, evalN, time.Millisecond),
		"physical.group_rows_in":    float64(rp.work.GroupRowsIn) / evalN,
		"physical.groups":           float64(rp.work.Groups) / evalN,
		"physical.peak_tuples":      float64(rp.peakTuples),
		"physical.alloc_mb":         float64(rp.allocBytes) / (1 << 20) / evalN,
		"storage.load_ms":           Median(loads),
		"storage.append_ms":         per(self["storage.append"], mutN, time.Millisecond),
		"storage.clone_ms":          per(self["storage.clone"], mutN, time.Millisecond),
		"storage.segments_opened":   float64(rp.io[0]) / evalN,
		"storage.index_blocks_read": float64(rp.io[1]) / evalN,
		"storage.delta_rows":        float64(rp.io[2]) / evalN,
		"storage.bytes_read":        float64(rp.io[3]) / evalN,
		"storage.dict_size":         float64(rp.dictSize),
		"storage.intern_misses":     float64(rp.internMisses - rp.internMisses0),
		"trace.overhead_pct":        float64(onTotal-offTotal) / float64(offTotal) * 100,
	}
	for _, op := range physicalOps {
		vals["physical."+string(op)+"_ms"] = per(self["physical."+string(op)], evalN, time.Millisecond)
	}
	for name, r := range ratios {
		vals[name] = r.Value()
		b.logf("ratio %s = %s", name, r)
	}

	perReq := func(d time.Duration) float64 { return float64(d) / float64(len(reqs)) / 1e6 }
	b.logf("replay: %d requests (%d evaluated, %d mutations); spans-off %.3f then %.3f ms/request, spans-on %.3f ms/request; trace written to %s",
		len(reqs), rp.evalReqs, rp.mutReqs, perReq(sum(off.durs)), perReq(sum(off2.durs)), perReq(onTotal), tracePath)
	b.logf("flockd HTTP/JSON share: untraced client latency %.3f ms/request; median per-request latency minus spans-off replay = %.3f ms; cross-check: flockd.overhead_ms (latency minus wall_ns, evaluated requests) = %.3f ms",
		float64(e2e)/float64(len(reqs))/1e6, vals["flockd.http_json_ms"], vals["flockd.overhead_ms"])
	b.printLayers(self, spans, len(reqs))
	return b.emit(v, perLayer, vals)
}

// printLayers prints the self time per layer and per call, per request,
// and the worst per-request gap between the sum of self times and the
// request's span.
func (b *bench) printLayers(self map[string]time.Duration, spans []Span, n int) {
	layers := map[string]time.Duration{}
	for name, d := range self {
		layers[Layer(name)] += d
	}
	for _, l := range sortedKeys(layers) {
		b.logf("layer %-9s %9.4f ms/request self", l, float64(layers[l])/float64(n)/1e6)
	}
	names := sortedKeys(self)
	for _, name := range names {
		b.logf("call  %-24s %9.4f ms/request self", name, float64(self[name])/float64(n)/1e6)
	}
	byReq := map[int][]Span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	worst := 0.0
	for _, ss := range byReq {
		var selfSum time.Duration
		for _, d := range SelfTimes(ss) {
			selfSum += d
		}
		if root := RootTime(ss); root > 0 {
			worst = max(worst, abs(float64(selfSum-root))/float64(root))
		}
	}
	b.logf("self-time sum vs request span: worst per-request gap %.2f%% over %d requests", worst*100, len(byReq))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// copyDir copies a flat data directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			return fmt.Errorf("copyDir: unexpected subdirectory %s", e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirSize sums the sizes of the files in a flat directory.
func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
