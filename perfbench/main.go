// Command perfbench is the repository benchmark. It drives the real
// flockd binary over loopback HTTP with closed-loop clients on one of
// three seeded workloads, checks every answer against an oracle that
// shares no code with the physical engine, and prints the end-to-end
// metrics. With -trace 1 it instead replays the same request sequence
// in-process with a span around each call into a layer and prints the
// per-layer metrics. perfbench/run.sh builds flockd and this command
// from source and runs it:
//
//	bash perfbench/run.sh --workload medical-serve --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. See perfbench/README.md for the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"queryflocks/internal/storage"
)

// Repeated starts per run. Set-up and reopen time are the medians of
// their timed starts; the first reopenWarmup restarts are not timed (see
// reopen).
const (
	setupRepeats  = 25
	reopenWarmup  = 5
	reopenRepeats = 100
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	flockd   string
	buildDir string
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name (words-adhoc, medical-serve, medical-disk)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the data and the request sequences")
	fs.IntVar(&o.seconds, "seconds", 30, "closed-loop measuring time")
	fs.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from the traced replay")
	fs.StringVar(&o.flockd, "flockd", ".bench_build/flockd", "flockd binary")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for run data, traces and details")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	if _, err := os.Stat(o.flockd); err != nil {
		return fmt.Errorf("flockd binary: %w", err)
	}
	work := filepath.Join(o.buildDir, fmt.Sprintf("run-%s-%d-%d", ws.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := &bench{o: o, ws: ws, work: work, out: out, db: ws.gen(o.seed)}
	if err := b.stamp(); err != nil {
		return err
	}
	if o.trace == 1 {
		return b.traced()
	}
	return b.endToEnd()
}

// bench is one run's state.
type bench struct {
	o    options
	ws   *workloadSpec
	work string
	out  io.Writer
	db   *storage.Database // the generated base data
	base string            // pristine data directory
	proc *flockd           // the serving process, when up
}

func (b *bench) flags(dir string) []string {
	return []string{"-data-dir", dir, "-engine", b.ws.engine}
}

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.out, format+"\n", args...) }

// stamp prints what a reader needs to reproduce and compare the run.
func (b *bench) stamp() error {
	tuples := map[string]int{}
	for _, n := range b.db.Names() {
		tuples[n] = b.db.MustSource(n).Len()
	}
	st := map[string]any{
		"workload":     b.ws.name,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"seed":         b.o.seed,
		"tuples":       tuples,
		"data":         fmt.Sprintf("flockgen %s -seed %d -data-dir DIR", b.ws.genArgs, b.o.seed),
		"flockd_flags": strings.Join(b.flags("DIR"), " ") + " -addr 127.0.0.1:0 (other flags default: -workers 0 -plan-cache 256 -memo-mb 64 -max-queries 4 -timeout 30s)",
		"clients":      b.ws.clients,
		"command":      fmt.Sprintf("bash perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d", b.ws.name, b.o.seed, b.o.seconds, b.o.trace),
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	b.logf("stamp %s", raw)
	return nil
}

// setup measures repeated cold starts and leaves the pristine base data
// directory in place. On a workload that ingests in set-up, each start
// includes storage.CreateDir.
func (b *bench) setup(repeats int) (float64, error) {
	b.base = filepath.Join(b.work, "base")
	if err := storage.CreateDir(b.base, b.db); err != nil {
		return 0, err
	}
	var times []float64
	quiesce()
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("setup%d", i))
		var ingest time.Duration
		if b.ws.ingestInSetup {
			t0 := time.Now()
			if err := storage.CreateDir(dir, b.db); err != nil {
				return 0, err
			}
			ingest = time.Since(t0)
		} else if err := copyDir(b.base, dir); err != nil {
			return 0, err
		}
		f, d, err := startFlockd(b.o.flockd, b.flags(dir))
		if err != nil {
			return 0, err
		}
		f.kill()
		times = append(times, (ingest + d).Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	b.logStarts("setup", times)
	return Median(times), nil
}

func (b *bench) logStarts(what string, times []float64) {
	s := append([]float64(nil), times...)
	sort.Float64s(s)
	b.logf("%s: median %.4fs of %d starts (min %.4fs, max %.4fs)", what, Median(s), len(s), s[0], s[len(s)-1])
}

// serveRun starts the serving flockd on a copy of the base directory,
// prepares the workload's flocks and runs the closed loop for dur.
func (b *bench) serveRun(dur time.Duration) (*httpTarget, []result, time.Duration, error) {
	dir := filepath.Join(b.work, "serve")
	if err := copyDir(b.base, dir); err != nil {
		return nil, nil, 0, err
	}
	f, _, err := startFlockd(b.o.flockd, b.flags(dir))
	if err != nil {
		return nil, nil, 0, err
	}
	b.proc = f
	h := newTarget(f.base, b.ws.clients)
	for _, id := range sortedKeys(b.ws.prepared) {
		if err := h.prepare(id, b.ws.prepared[id]); err != nil {
			return nil, nil, 0, err
		}
	}
	var gens []func() request
	for c := 0; c < b.ws.clients; c++ {
		gens = append(gens, b.ws.newClient(b.db, b.o.seed, c))
	}
	quiesce()
	results, elapsed := closedLoop(h, gens, dur, 3*dur)
	return h, results, elapsed, nil
}

func (b *bench) stop() {
	if b.proc != nil {
		b.proc.kill()
		b.proc = nil
	}
}

// verdict is the outcome of the answer checks.
type verdict struct {
	attempted, failed int
	ok                bool // oracle cross-check and durability passed
	orc               oracle
	notes             []string
}

// check compares every answer with the oracle at the data version it was
// computed at, outside the timed window. Mutations are applied to the
// oracle's mirror in version order.
func (b *bench) check(results []result) (*verdict, error) {
	orc, err := b.ws.oracle(b.db, b.ws)
	if err != nil {
		return nil, err
	}
	v := &verdict{attempted: len(results), ok: true, orc: orc}
	var muts, evals []*result
	for i := range results {
		r := &results[i]
		switch {
		case !r.ok():
			v.failed++
			v.note("%s failed: %s", r.req.Kind, r.err)
		case r.req.Kind == "mutate":
			if r.ins != len(r.req.Rows) {
				v.failed++
				v.note("mutate inserted %d of %d rows", r.ins, len(r.req.Rows))
			}
			muts = append(muts, r)
		default:
			evals = append(evals, r)
		}
	}
	sort.SliceStable(muts, func(i, j int) bool { return muts[i].version < muts[j].version })
	sort.SliceStable(evals, func(i, j int) bool { return evals[i].version < evals[j].version })
	for i, m := range muts {
		if m.version != uint64(i+1) {
			return nil, fmt.Errorf("mutation versions are not 1..%d (got %d at %d)", len(muts), m.version, i)
		}
	}
	// The oracle's incremental state is cross-checked at the end at the
	// lowest and highest threshold asked of each flock.
	final := map[string][]int{}
	want := map[string]string{}
	mi := 0
	for _, r := range evals {
		for mi < len(muts) && muts[mi].version <= r.version {
			if err := orc.apply(muts[mi].req.Rel, muts[mi].req.Rows); err != nil {
				return nil, err
			}
			mi++
		}
		key := fmt.Sprintf("%s|%d|%d", r.req.Flock, r.req.Threshold, r.version)
		w, seen := want[key]
		if !seen {
			if w, err = orc.answer(r.req.Flock, r.req.Threshold); err != nil {
				return nil, err
			}
			want[key] = w
		}
		if r.answer != w {
			v.failed++
			v.note("%s %s t=%d at v%d: wrong answer", r.req.Kind, r.req.Flock, r.req.Threshold, r.version)
		}
		t := r.req.Threshold
		if lh, ok := final[r.req.Flock]; ok {
			lh[0], lh[1] = min(lh[0], t), max(lh[1], t)
		} else {
			final[r.req.Flock] = []int{t, t}
		}
	}
	for ; mi < len(muts); mi++ {
		if err := orc.apply(muts[mi].req.Rel, muts[mi].req.Rows); err != nil {
			return nil, err
		}
	}
	if err := orc.finalCheck(final); err != nil {
		v.ok = false
		v.note("%v", err)
	}
	return v, nil
}

func (v *verdict) note(format string, args ...any) {
	if len(v.notes) < 20 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// reopen SIGKILLs the serving flockd after its last acknowledged
// mutation and restarts it on the same data directory, repeatedly, and
// returns the median of the timed restarts. The first reopenWarmup
// restarts are not timed: the ones right after the closed loop and the
// checks ran slower. The first restart is the durability check: every
// acknowledged row must be readable and every checked flock must answer
// as the oracle does. A restart takes about 10 ms on words-adhoc, so
// single restarts vary by a third with scheduling; the median of 100
// varies by about a tenth between runs, the minimum of 25 by a quarter.
func (b *bench) reopen(v *verdict) (float64, error) {
	dir := filepath.Join(b.work, "serve")
	var times []float64
	quiesce()
	for i := 0; i < reopenWarmup+reopenRepeats; i++ {
		b.stop()
		f, d, err := startFlockd(b.o.flockd, b.flags(dir))
		if err != nil {
			return 0, err
		}
		b.proc = f
		if i >= reopenWarmup {
			times = append(times, d.Seconds())
		}
		if i == 0 {
			if err := b.verifyDurable(f, v); err != nil {
				v.ok = false
				v.note("durability: %v", err)
			}
		}
	}
	b.stop()
	b.logStarts("reopen", times)
	return Median(times), nil
}

func (b *bench) verifyDurable(f *flockd, v *verdict) error {
	resp, err := http.Get(f.base + "/rels")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rels []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rels); err != nil {
		return err
	}
	want := v.orc.rowCounts()
	for _, r := range rels {
		if want[r.Name] != r.Rows {
			return fmt.Errorf("%s has %d rows after reopen, %d acknowledged", r.Name, r.Rows, want[r.Name])
		}
	}
	h := newTarget(f.base, 1)
	defer h.close()
	for _, id := range sortedKeys(b.ws.checked) {
		r := h.do(request{Kind: "query", Flock: id, Src: b.ws.checked[id](20), Strategy: "direct"})
		r.decode()
		if !r.ok() {
			return fmt.Errorf("query %s after reopen: %s", id, r.err)
		}
		w, err := v.orc.answer(id, 20)
		if err != nil {
			return err
		}
		if r.answer != w {
			return fmt.Errorf("%s answers differently after reopen", id)
		}
	}
	return nil
}

// latencies groups successful request latencies (ms) by class.
func latencies(results []result) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range results {
		if r.ok() {
			out[r.req.Kind] = append(out[r.req.Kind], float64(r.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (b *bench) endToEnd() error {
	defer b.stop()
	setup, err := b.setup(setupRepeats)
	if err != nil {
		return err
	}
	h, results, elapsed, err := b.serveRun(time.Duration(b.o.seconds) * time.Second)
	if err != nil {
		return err
	}
	h.close()
	rss, err := b.proc.peakRSSMiB()
	if err != nil {
		return err
	}
	v, err := b.check(results)
	if err != nil {
		return err
	}
	reopen, err := b.reopen(v)
	if err != nil {
		return err
	}
	b.logf("durability: SIGKILL after the last acknowledged /mutate, then reopen; SIGKILL keeps the OS page cache, so this checks process-crash durability only (power loss needs a fault-injection seam)")

	if err := b.writeRequests(results); err != nil {
		return err
	}
	okN := 0
	for _, r := range results {
		if r.ok() {
			okN++
		}
	}
	vals := map[string]float64{"throughput_rps": float64(okN) / elapsed.Seconds()}
	lat := latencies(results)
	b.logf("closed loop: %d clients, %d requests (query %d, invoke %d, mutate %d) in %.2fs; error_rate %s",
		b.ws.clients, len(results), len(lat["query"]), len(lat["invoke"]), len(lat["mutate"]), elapsed.Seconds(),
		Ratio{float64(v.failed), float64(v.attempted)})
	vals["setup_s"], vals["reopen_s"], vals["peak_rss_mb"] = setup, reopen, rss
	for _, kind := range []string{"query", "invoke", "mutate"} {
		for _, q := range []float64{0.5, 0.9} {
			p, err := Percentile(lat[kind], q)
			if err != nil {
				return fmt.Errorf("%s latency: %w", kind, err)
			}
			vals[fmt.Sprintf("%s_p%g_ms", kind, q*100)] = p.Value
			b.logf("%s latency %s ms", kind, p)
		}
	}
	return b.emit(v, endToEnd, vals)
}

// emit prints the notes and the final result line.
func (b *bench) emit(v *verdict, defs []metricDef, vals map[string]float64) error {
	for _, n := range v.notes {
		b.logf("check: %s", n)
	}
	s := summary{Correct: v.ok && v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		val, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		s.Metrics[d.name] = metricOut{Value: val, Unit: d.unit}
		if d.moves != "" {
			b.logf("metric %s = %.6g %s; should move %s", d.name, val, d.unit, d.moves)
		}
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return err
	}
	b.logf("%s", raw)
	return nil
}

// writeRequests writes one line per request — class, flock, strategy,
// threshold, data version, status and latency — beside the traces.
func (b *bench) writeRequests(results []result) error {
	dir := filepath.Join(b.o.buildDir, "requests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.ws.name, b.o.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		rec := map[string]any{"seq": r.seq, "client": r.req.Client, "kind": r.req.Kind, "flock": r.req.Flock,
			"strategy": r.req.Strategy, "threshold": r.req.Threshold, "version": r.version,
			"status": r.status, "latency_ms": float64(r.lat.Nanoseconds()) / 1e6, "wall_ms": float64(r.wallNs) / 1e6}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// quiesce finishes this process's pending garbage collection, so the
// generator's and the oracle's garbage is not collected while flockd is
// being timed.
func quiesce() { runtime.GC() }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
