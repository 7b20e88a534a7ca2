package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"strings"
	"time"

	"queryflocks/internal/analysis"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/planner"
	"queryflocks/internal/serve"
	"queryflocks/internal/storage"
)

// flockd's defaults, which the HTTP runs leave untouched and the replay
// reproduces.
const (
	defaultPlanCache = 256
	defaultMemoBytes = 64 << 20
	defaultTimeout   = 30 * time.Second
	defaultWorkers   = 0
)

// replayer replays a request sequence in-process, making the calls
// cmd/flockd's /query, /invoke and /mutate handlers make, in their
// order, with a span around each call into another layer. Everything
// outside those spans — body handling, response rows, JSON — is flockd's
// own time.
type replayer struct {
	tr       *Tracer
	db       *storage.Database
	dir      *storage.Dir
	plans    *serve.PlanCache
	memo     *serve.Memo
	registry *serve.Registry
	handles  map[string]string // flock ID -> handle

	// Accumulated over evaluated requests.
	evalReqs, mutReqs int
	work              OpWork
	peakTuples        int
	allocBytes        uint64
	dictSize          int
	internMisses      uint64 // cumulative dictionary counter, last sample
	internMisses0     uint64
	internSeen        bool
	io                [4]int64 // segments, index blocks, delta rows, bytes
	csvBytes          int64
}

type prepFlock struct {
	fs       *datalog.FlockSource
	flock    *core.Flock
	canon    string
	warnings []analysis.Diagnostic
}

type planEntry struct {
	flock    *core.Flock
	plan     *core.Plan
	warnings []analysis.Diagnostic
}

// openReplayer opens the data directory the way flockd does and prepares
// the workload's flocks outside any span.
func openReplayer(path string, engine storage.Engine, prepared map[string]string, tr *Tracer) (*replayer, error) {
	db, dir, err := storage.OpenDir(path, engine)
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		tr: tr, db: db, dir: dir,
		plans:    serve.NewPlanCache(defaultPlanCache),
		memo:     serve.NewMemo(defaultMemoBytes),
		registry: serve.NewRegistry(),
		handles:  map[string]string{},
		work:     OpWork{Self: map[obs.Op]time.Duration{}},
	}
	for id, src := range prepared {
		fs, err := datalog.ParseFlock(analysis.StripExplain(src))
		if err != nil {
			return nil, err
		}
		diags := analysis.AnalyzeFlockSource(fs, analysis.Options{DB: db})
		if analysis.HasErrors(diags) {
			return nil, fmt.Errorf("prepare %s: rejected by static analysis", id)
		}
		flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
		if err != nil {
			return nil, err
		}
		if err := flock.CheckDatabase(db); err != nil {
			return nil, err
		}
		canon := analysis.CanonicalProgram(fs)
		rp.handles[id], _ = rp.registry.Register(canon, &prepFlock{fs: fs, flock: flock, canon: canon, warnings: diags})
	}
	return rp, nil
}

func (rp *replayer) do(req request) error {
	rp.tr.BeginRequest("flockd." + req.Kind)
	defer rp.tr.End()
	switch req.Kind {
	case "query":
		return rp.query(req)
	case "invoke":
		return rp.invoke(req)
	default:
		return rp.mutate(req)
	}
}

func (rp *replayer) query(req request) error {
	src := []byte(req.Src)
	db := rp.db
	useCache := !req.NoCache

	rp.tr.Begin("datalog.parse")
	fs, err := datalog.ParseFlock(analysis.StripExplain(string(src)))
	rp.tr.End()
	if err != nil {
		return err
	}
	rp.tr.Begin("analysis.canon")
	canon := analysis.CanonicalProgram(fs)
	rp.tr.End()
	key := planKey(canon, req.Strategy, db.Version())
	var ent *planEntry
	if useCache {
		rp.tr.Begin("serve.plan_get")
		v, ok := rp.plans.Get(key)
		rp.tr.End()
		if ok {
			ent = v.(*planEntry)
		}
	}
	if ent == nil {
		rp.tr.Begin("analysis.lint")
		diags := analysis.AnalyzeFlockSource(fs, analysis.Options{DB: db})
		rp.tr.End()
		if analysis.HasErrors(diags) {
			return fmt.Errorf("rejected by static analysis")
		}
		rp.tr.Begin("core.check")
		flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
		if err == nil {
			err = flock.CheckDatabase(db)
		}
		rp.tr.End()
		if err != nil {
			return err
		}
		ent = &planEntry{flock: flock, warnings: diags}
	}
	return rp.evalEntry(db, ent, key, req.Strategy, useCache, "")
}

func (rp *replayer) invoke(req request) error {
	handle := rp.handles[req.Flock]
	rp.tr.Begin("serve.registry")
	v, ok := rp.registry.Get(handle)
	rp.tr.End()
	if !ok {
		return fmt.Errorf("no prepared flock %q", req.Flock)
	}
	p := v.(*prepFlock)
	var body struct {
		Threshold *json.Number `json:"threshold"`
	}
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"threshold":%d}`, req.Threshold)), &body); err != nil {
		return err
	}
	f, err := body.Threshold.Float64()
	if err != nil || math.IsInf(f, 0) {
		return fmt.Errorf("bad threshold %s", *body.Threshold)
	}
	tv := storage.ParseValue(body.Threshold.String())

	db := rp.db
	spec := p.fs.Filter
	spec.Threshold = tv
	rp.tr.Begin("core.check")
	flock, err := core.NewWithViews(p.fs.Views, p.fs.Query, spec)
	rp.tr.End()
	if err != nil {
		return err
	}
	rp.tr.Begin("analysis.canon")
	canon := analysis.CanonicalProgram(&datalog.FlockSource{Views: p.fs.Views, Query: p.fs.Query, Filter: spec})
	rp.tr.End()

	useCache := !req.NoCache
	key := planKey(canon, req.Strategy, db.Version())
	var ent *planEntry
	if useCache {
		rp.tr.Begin("serve.plan_get")
		v, ok := rp.plans.Get(key)
		rp.tr.End()
		if ok {
			ent = v.(*planEntry)
		}
	}
	if ent == nil {
		rp.tr.Begin("core.check")
		err := flock.CheckDatabase(db)
		rp.tr.End()
		if err != nil {
			return err
		}
		ent = &planEntry{flock: flock, warnings: p.warnings}
	}
	return rp.evalEntry(db, ent, key, req.Strategy, useCache, handle)
}

// evalEntry is the shared tail of /query and /invoke: plan if needed,
// cache the entry, evaluate, and render the response.
func (rp *replayer) evalEntry(db *storage.Database, ent *planEntry, key, strategy string, useCache bool, handle string) error {
	if ent.plan == nil && needsPlan(strategy) {
		rp.tr.Begin("planner.plan")
		plan, err := buildPlan(strategy, ent.flock, db)
		rp.tr.End()
		if err != nil {
			return err
		}
		ent.plan = plan
	}
	if useCache {
		rp.tr.Begin("serve.plan_put")
		rp.plans.Put(key, ent)
		rp.tr.End()
	}

	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	defer cancel()
	trc := &eval.Trace{}
	trc.Collector()
	io0 := ioSample(db)
	start := time.Now()
	rp.tr.Begin("core.eval")
	answer, err := rp.evaluate(ctx, db, ent, strategy, trc, useCache)
	rp.tr.End()
	if err != nil {
		return err
	}
	report := trc.Report(strategy, defaultWorkers, answer.Len())
	w := AggregateOps(report)
	if rp.tr != nil {
		var names []string
		var durs []time.Duration
		for _, op := range physicalOps {
			if d := w.Self[op]; d > 0 {
				names = append(names, "physical."+string(op))
				durs = append(durs, d)
			}
		}
		rp.tr.DeriveLast(names, durs)
	}
	rp.tr.Begin("serve.stats")
	report.Caches = rp.cacheStats(db)
	rp.tr.End()
	rp.tr.Begin("obs.publish")
	obs.PublishReport(report)
	rp.tr.End()
	resp := struct {
		Strategy   string                `json:"strategy"`
		Handle     string                `json:"handle,omitempty"`
		AnswerRows int                   `json:"answer_rows"`
		Columns    []string              `json:"columns"`
		Rows       [][]string            `json:"rows"`
		WallNs     int64                 `json:"wall_ns"`
		Warnings   []analysis.Diagnostic `json:"warnings,omitempty"`
		Report     *obs.RunReport        `json:"report,omitempty"`
	}{Strategy: strategy, Handle: handle, AnswerRows: answer.Len(), Columns: answer.Columns(),
		WallNs: time.Since(start).Nanoseconds(), Warnings: ent.warnings, Report: report}
	resp.Rows = make([][]string, 0, answer.Len())
	for _, t := range answer.Sorted() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
		}
		resp.Rows = append(resp.Rows, row)
	}
	if _, err := json.MarshalIndent(resp, "", "  "); err != nil {
		return err
	}

	io1 := ioSample(db)
	for i := range rp.io {
		rp.io[i] += io1[i] - io0[i]
	}
	rp.evalReqs++
	rp.work.add(w)
	rp.peakTuples = max(rp.peakTuples, report.PeakTuples)
	rp.allocBytes += report.AllocBytes
	rp.dictSize = max(rp.dictSize, report.DictSize)
	if report.DictSize > 0 {
		if !rp.internSeen {
			rp.internMisses0, rp.internSeen = report.InternMisses, true
		}
		rp.internMisses = report.InternMisses
	}
	return nil
}

// evaluate is flockd's single-node evaluation switch.
func (rp *replayer) evaluate(ctx context.Context, db *storage.Database, ent *planEntry,
	strategy string, trc *eval.Trace, useCache bool) (*storage.Relation, error) {
	ev := &core.EvalOptions{Workers: defaultWorkers, Trace: trc, Ctx: ctx}
	if useCache && memoStrategy(strategy) {
		ev.Memo = rp.memo
		ev.MemoSalt = core.MemoContext(db, ent.flock)
	}
	switch strategy {
	case "direct":
		return ent.flock.Eval(db, ev)
	case "static":
		res, err := ent.plan.Execute(db, ev)
		if err != nil {
			return nil, err
		}
		return res.Answer, nil
	case "dynamic":
		res, err := planner.EvalDynamic(db, ent.flock, &planner.DynamicOptions{Workers: defaultWorkers, Trace: trc, Ctx: ctx})
		if err != nil {
			return nil, err
		}
		return res.Answer, nil
	}
	return nil, fmt.Errorf("strategy %q is not replayed", strategy)
}

func (rp *replayer) mutate(req request) error {
	body := csvBody(req.Rows)
	rp.csvBytes += int64(len(body))
	records, err := csv.NewReader(strings.NewReader(string(body))).ReadAll()
	if err != nil {
		return err
	}
	src, err := rp.db.Source(req.Rel)
	if err != nil {
		return err
	}
	rows := make([]storage.Tuple, 0, len(records))
	for _, rec := range records {
		if len(rec) != src.Arity() {
			return fmt.Errorf("row arity %d, relation %s has %d", len(rec), req.Rel, src.Arity())
		}
		t := make(storage.Tuple, len(rec))
		for j, field := range rec {
			t[j] = storage.ParseValue(field)
		}
		rows = append(rows, t)
	}

	newVersion := rp.db.Version() + 1
	var added []storage.Tuple
	rp.tr.Begin("storage.clone")
	db := rp.db.Clone()
	if drel, isDisk := src.(*storage.DiskRelation); isDisk {
		var next *storage.DiskRelation
		next, added, err = drel.WithDelta(rows)
		if err == nil {
			db.AddSource(next)
		}
	} else {
		var old *storage.Relation
		old, err = rp.db.Relation(req.Rel)
		if err == nil {
			next := old.Clone()
			for _, t := range rows {
				if next.Insert(t) {
					added = append(added, t)
				}
			}
			db.Add(next)
		}
	}
	rp.tr.End()
	if err != nil {
		return err
	}
	rp.tr.Begin("storage.append")
	err = rp.dir.AppendDelta(req.Rel, added, newVersion)
	rp.tr.End()
	if err != nil {
		return err
	}
	db.SetVersion(newVersion)
	rp.db = db
	rp.mutReqs++
	_, err = json.MarshalIndent(mutateResponse{Inserted: len(added), Version: newVersion}, "", "  ")
	return err
}

func (rp *replayer) cacheStats(db *storage.Database) *obs.CacheStats {
	cs := &obs.CacheStats{PreparedFlocks: rp.registry.Len(), DBVersion: db.Version()}
	ps := rp.plans.Stats()
	cs.PlanEntries, cs.PlanCapacity = ps.Entries, ps.Capacity
	cs.PlanHits, cs.PlanMisses, cs.PlanEvictions = ps.Hits, ps.Misses, ps.Evictions
	ms := rp.memo.Stats()
	cs.MemoEntries, cs.MemoBytes, cs.MemoMaxBytes = ms.Entries, ms.Bytes, ms.MaxBytes
	cs.MemoExtHits, cs.MemoExtMisses = ms.ExtHits, ms.ExtMisses
	cs.MemoSurvHits, cs.MemoSurvMisses = ms.SurvHits, ms.SurvMiss
	cs.MemoEvictions = ms.Evictions
	return cs
}

func ioSample(db *storage.Database) [4]int64 {
	s := db.IO()
	if s == nil {
		return [4]int64{}
	}
	return [4]int64{s.SegmentsOpened(), s.IndexBlocksRead(), s.DeltaRows(), s.BytesRead()}
}

func (w *OpWork) add(o OpWork) {
	for op, d := range o.Self {
		w.Self[op] += d
	}
	w.GroupRowsIn += o.GroupRowsIn
	w.Groups += o.Groups
	w.Survivors += o.Survivors
	w.IDBatches += o.IDBatches
	w.BoxedBatches += o.BoxedBatches
	w.Decisions += o.Decisions
	w.Filtered += o.Filtered
}

// The helpers below restate cmd/flockd's, which live in package main
// there and cannot be imported.

func planKey(canon, strategy string, version uint64) string {
	return fmt.Sprintf("%s|v%d|%s", strategy, version, canon)
}

func needsPlan(s string) bool { return s == "static" || s == "exhaustive" || s == "levelwise" }

func memoStrategy(s string) bool {
	return s == "direct" || s == "static" || s == "exhaustive" || s == "levelwise"
}

func buildPlan(strategy string, flock *core.Flock, db *storage.Database) (*core.Plan, error) {
	if strategy != "static" {
		return nil, fmt.Errorf("strategy %q is not replayed", strategy)
	}
	return planner.PlanStatic(flock, planner.NewEstimator(db), nil)
}

// replayRun is one replay of a request sequence.
type replayRun struct {
	rp     *replayer
	durs   []time.Duration // per request, same order as the sequence
	gcFrac float64
	errs   int
}

// replay opens path and replays reqs, timing each request from outside.
func replay(path string, engine storage.Engine, prepared map[string]string, reqs []request, tr *Tracer) (*replayRun, error) {
	rp, err := openReplayer(path, engine, prepared, tr)
	if err != nil {
		return nil, err
	}
	run := &replayRun{rp: rp, durs: make([]time.Duration, len(reqs))}
	gc0, cpu0 := cpuSample()
	for i, req := range reqs {
		s := time.Now()
		if err := rp.do(req); err != nil {
			run.errs++
		}
		run.durs[i] = time.Since(s)
	}
	gc1, cpu1 := cpuSample()
	if cpu1 > cpu0 {
		run.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return run, nil
}

// cpuSample reads the runtime's cumulative GC and total CPU estimates.
func cpuSample() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
