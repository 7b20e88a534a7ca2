package main

import (
	"fmt"
	"sort"
	"strings"

	"queryflocks/internal/apriori"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
)

// oracle computes expected answers independently of the physical
// engine, over a mirror of the served data that applies the same
// acknowledged mutations.
type oracle interface {
	// apply adds acknowledged mutation rows to the mirror.
	apply(rel string, rows [][]string) error
	// answer is the expected answer of flock at threshold over the
	// mirror's current state, in canonical form (see canonRows).
	answer(flock string, threshold int) (string, error)
	// finalCheck cross-checks the oracle's incremental state against a
	// from-scratch evaluation of the final mirror.
	finalCheck(thresholds map[string][]int) error
	// rowCounts is the mirror's cardinality per relation.
	rowCounts() map[string]int
}

// canonRows renders an answer as sorted comma-joined rows, one per line.
func canonRows(rows [][]string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, ",")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func parseRows(rows [][]string) []storage.Tuple {
	out := make([]storage.Tuple, len(rows))
	for i, r := range rows {
		t := make(storage.Tuple, len(r))
		for j, f := range r {
			t[j] = storage.ParseValue(f)
		}
		out[i] = t
	}
	return out
}

func countRows(db *storage.Database) map[string]int {
	out := make(map[string]int)
	for _, n := range db.Names() {
		out[n] = db.MustSource(n).Len()
	}
	return out
}

// aprioriOracle checks the word-basket pair flock with the level-wise
// a-priori counter of internal/apriori, which shares no code with the
// engine.
type aprioriOracle struct {
	db      *storage.Database // mirror; owns a private baskets clone
	baskets *storage.Relation
	ds      *apriori.Dataset // nil after a mutation
}

func newAprioriOracle(db *storage.Database, _ *workloadSpec) (oracle, error) {
	b, err := db.Relation("baskets")
	if err != nil {
		return nil, err
	}
	mirror := db.Clone()
	o := &aprioriOracle{db: mirror, baskets: b.Clone()}
	mirror.Add(o.baskets)
	return o, nil
}

func (o *aprioriOracle) apply(rel string, rows [][]string) error {
	if rel != "baskets" {
		return fmt.Errorf("apriori oracle: mutation of %q", rel)
	}
	for _, t := range parseRows(rows) {
		o.baskets.Insert(t)
	}
	o.ds = nil
	return nil
}

func (o *aprioriOracle) dataset() (*apriori.Dataset, error) {
	if o.ds == nil {
		ds, err := apriori.FromBaskets(o.baskets)
		if err != nil {
			return nil, err
		}
		o.ds = ds
	}
	return o.ds, nil
}

func (o *aprioriOracle) answer(flock string, t int) (string, error) {
	ds, err := o.dataset()
	if err != nil {
		return "", err
	}
	if flock != "pairs" {
		return "", fmt.Errorf("apriori oracle: unknown flock %q", flock)
	}
	return canonRows(pairRows(ds, apriori.FrequentPairs(ds, t))), nil
}

func pairRows(ds *apriori.Dataset, pairs []apriori.Counted) [][]string {
	var rows [][]string
	for _, t := range apriori.PairsRelation(ds, pairs).Tuples() {
		rows = append(rows, []string{t[0].String(), t[1].String()})
	}
	return rows
}

// finalCheck compares a-priori's pruned pair count with the unpruned
// pair counter on the final mirror.
func (o *aprioriOracle) finalCheck(thresholds map[string][]int) error {
	ds, err := o.dataset()
	if err != nil {
		return err
	}
	for _, t := range thresholds["pairs"] {
		if canonRows(pairRows(ds, apriori.FrequentPairs(ds, t))) != canonRows(pairRows(ds, apriori.NaivePairs(ds, t))) {
			return fmt.Errorf("apriori oracle: pruned and naive pair counts differ at threshold %d", t)
		}
	}
	return nil
}

func (o *aprioriOracle) rowCounts() map[string]int { return countRows(o.db) }

// legacyOracle checks medical flocks with the legacy materializing
// executor (eval.ExecMaterialize), which the physical engine does not
// use. It keeps each flock's extended answer — parameters plus head —
// and the per-group counts, and maintains them under appends: every
// query rule uses a mutated relation exactly once, positively, and no
// view reads it, so the extended answer of R ∪ Δ is that of R united
// with the query evaluated with Δ in R's place.
type legacyOracle struct {
	db     *storage.Database // mirror with private clones of mutated relations
	src    map[string]func(int) string
	flocks map[string]*legacyFlock
}

type legacyFlock struct {
	f      *core.Flock
	mat    *storage.Database // base relations plus materialized views
	ext    *storage.Relation
	counts map[string]int      // parameter key -> group count
	params map[string][]string // parameter key -> rendered parameters
}

var legacyOpts = &eval.Options{Exec: eval.ExecMaterialize, Workers: 1}

func newLegacyOracle(db *storage.Database, ws *workloadSpec) (oracle, error) {
	o := &legacyOracle{db: db.Clone(), src: ws.checked, flocks: make(map[string]*legacyFlock)}
	for _, n := range db.Names() {
		r, err := db.Relation(n)
		if err != nil {
			return nil, err
		}
		o.db.Add(r.Clone())
	}
	for id, src := range ws.checked {
		f, err := core.Parse(src(1))
		if err != nil {
			return nil, fmt.Errorf("legacy oracle: %s: %w", id, err)
		}
		mat, err := f.MaterializeViews(o.db, &core.EvalOptions{Exec: eval.ExecMaterialize, Workers: 1})
		if err != nil {
			return nil, err
		}
		lf := &legacyFlock{f: f, mat: mat, counts: map[string]int{}, params: map[string][]string{}}
		ext, err := lf.extended(mat)
		if err != nil {
			return nil, err
		}
		lf.ext = storage.NewRelation("ext", ext.Columns()...)
		lf.add(ext)
		o.flocks[id] = lf
	}
	return o, nil
}

// extended evaluates the flock's extended answer over db with the legacy
// executor.
func (lf *legacyFlock) extended(db *storage.Database) (*storage.Relation, error) {
	return eval.EvalUnion(db, lf.f.Query, func(r *datalog.Rule) []datalog.Term {
		out := make([]datalog.Term, 0, len(lf.f.Params)+len(r.Head.Args))
		for _, p := range lf.f.Params {
			out = append(out, p)
		}
		return append(out, r.Head.Args...)
	}, legacyOpts)
}

// add folds extended-answer tuples into the group counts.
func (lf *legacyFlock) add(ext *storage.Relation) {
	np := len(lf.f.Params)
	for _, t := range ext.Tuples() {
		if !lf.ext.Insert(t) {
			continue
		}
		ps := make([]string, np)
		for i := range ps {
			ps[i] = t[i].String()
		}
		k := strings.Join(ps, "\x00")
		lf.counts[k]++
		lf.params[k] = ps
	}
}

// linearIn reports whether every query rule reads rel exactly once,
// positively, and no view reads it at all.
func (lf *legacyFlock) linearIn(rel string) (bool, error) {
	for _, v := range lf.f.Views {
		for _, a := range v.Body {
			if at, ok := a.(*datalog.Atom); ok && at.Pred == rel {
				return false, fmt.Errorf("legacy oracle: view %s reads mutated %s", v.Head.Pred, rel)
			}
		}
	}
	uses := 0
	for _, r := range lf.f.Query {
		n := 0
		for _, a := range r.Body {
			if at, ok := a.(*datalog.Atom); ok && at.Pred == rel {
				if at.Negated {
					return false, fmt.Errorf("legacy oracle: %s is negated in the query", rel)
				}
				n++
			}
		}
		if n > 1 {
			return false, fmt.Errorf("legacy oracle: %s appears %d times in one rule", rel, n)
		}
		uses += n
	}
	if uses > 0 && uses != len(lf.f.Query) {
		return false, fmt.Errorf("legacy oracle: %s read by only some rules", rel)
	}
	return uses > 0, nil
}

func (o *legacyOracle) apply(rel string, rows [][]string) error {
	r, err := o.db.Relation(rel)
	if err != nil {
		return err
	}
	delta := storage.NewRelation(rel, r.Columns()...)
	for _, t := range parseRows(rows) {
		if r.Insert(t) {
			delta.Insert(t)
		}
	}
	if delta.Len() == 0 {
		return nil
	}
	for id, lf := range o.flocks {
		uses, err := lf.linearIn(rel)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if !uses {
			continue
		}
		ddb := lf.mat.Clone()
		ddb.Add(delta)
		ext, err := lf.extended(ddb)
		if err != nil {
			return err
		}
		lf.add(ext)
	}
	return nil
}

func (o *legacyOracle) answer(flock string, t int) (string, error) {
	lf, ok := o.flocks[flock]
	if !ok {
		return "", fmt.Errorf("legacy oracle: unknown flock %q", flock)
	}
	var rows [][]string
	for k, c := range lf.counts {
		if c >= t {
			rows = append(rows, lf.params[k])
		}
	}
	return canonRows(rows), nil
}

// finalCheck evaluates each flock from scratch with the legacy executor
// on the final mirror and compares with the incrementally kept answer.
func (o *legacyOracle) finalCheck(thresholds map[string][]int) error {
	for id, ts := range thresholds {
		for _, t := range ts {
			f, err := core.Parse(o.src[id](t))
			if err != nil {
				return err
			}
			rel, err := f.Eval(o.db, &core.EvalOptions{Exec: eval.ExecMaterialize, Workers: 1})
			if err != nil {
				return err
			}
			var rows [][]string
			for _, tup := range rel.Tuples() {
				r := make([]string, len(tup))
				for i, v := range tup {
					r[i] = v.String()
				}
				rows = append(rows, r)
			}
			want, err := o.answer(id, t)
			if err != nil {
				return err
			}
			if canonRows(rows) != want {
				return fmt.Errorf("legacy oracle: %s at threshold %d: incremental answer differs from a full evaluation", id, t)
			}
		}
	}
	return nil
}

func (o *legacyOracle) rowCounts() map[string]int { return countRows(o.db) }
