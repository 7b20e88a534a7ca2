package core

import (
	"fmt"
	"math"
	"sort"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
)

// This file makes one FILTER computation's group-by state serializable, so
// a cluster worker can evaluate its shard's partition of the extended
// answer and ship the per-group partial aggregates to the coordinator,
// which merges them with the same GroupAcc.Merge the parallel group-by
// uses in-process. The contract mirrors the worker-count invariant: merging
// the partial states of a disjoint partition, in any grouping of parts,
// yields exactly the single-node answer.

// GroupState is one parameter group's partial aggregate in wire form. The
// fields are a union over the four accumulator kinds (COUNT, COUNT
// distinct, SUM, MIN/MAX); only the fields of the computation's aggregate
// are populated. Values travel as storage literals (see storage.Value's
// Literal/ParseValue round-trip). A group whose monotone short-circuit
// fired ships Done alone with no aggregate payload — the merged verdict is
// already decided, and for COUNT-distinct this bounds the per-group wire
// cost by the threshold instead of the group's full value set.
type GroupState struct {
	Params   []string `json:"params"`
	Done     bool     `json:"done,omitempty"`
	Count    int64    `json:"count,omitempty"`
	Distinct []string `json:"distinct,omitempty"`
	Sum      float64  `json:"sum,omitempty"`
	SawNeg   bool     `json:"saw_neg,omitempty"`
	SawValue bool     `json:"saw_value,omitempty"`
	Cur      string   `json:"cur,omitempty"`
	Has      bool     `json:"has,omitempty"`
}

// EvalPartialGroups runs one FILTER computation (§4.1) up to — but not
// through — the filter verdict: it materializes the extended answer over
// db, aggregates it by parameter prefix, and returns every group's partial
// state in a deterministic order (sorted by parameter literals). This is
// the worker half of the cluster's scatter/gather; the coordinator folds
// the shards' states back together with MergeGroupStates.
func EvalPartialGroups(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter Filter, opts *EvalOptions) ([]GroupState, error) {

	if filter.PassesEmpty() {
		return nil, fmt.Errorf("core: filter %s accepts the empty result; the flock's answer would be infinite", filter)
	}
	opts = opts.withGate()
	ext, err := eval.EvalUnion(db, query, func(r *datalog.Rule) []datalog.Term {
		return extendedOut(params, r)
	}, opts.subquery().evalOpts())
	if err != nil {
		return nil, err
	}
	groups, _ := aggregateGroups(ext, len(params), filter, opts.workers())
	opts.gate().NoteLive(ext.Len() + len(groups))
	if err := opts.gate().Check(); err != nil {
		return nil, err
	}
	states := make([]GroupState, 0, len(groups))
	for _, g := range groups {
		states = append(states, exportGroupState(g))
	}
	sort.Slice(states, func(i, j int) bool {
		a, b := states[i].Params, states[j].Params
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return states, nil
}

// exportGroupState freezes one group's accumulator into wire form.
func exportGroupState(g *filterGroup) GroupState {
	s := GroupState{Params: make([]string, len(g.params))}
	for i, v := range g.params {
		s.Params[i] = v.Literal()
	}
	if g.done {
		// The verdict is final; the aggregate no longer matters.
		s.Done = true
		return s
	}
	switch acc := g.acc.(type) {
	case *countAcc:
		s.Count = acc.n
	case *countDistinctAcc:
		s.Distinct = make([]string, 0, acc.n())
		for v := range acc.seen {
			s.Distinct = append(s.Distinct, v.Literal())
		}
		if acc.nan {
			s.Distinct = append(s.Distinct, storage.Float(math.NaN()).Literal())
		}
		sort.Strings(s.Distinct)
	case *sumAcc:
		s.Sum = acc.sum
		s.SawNeg = acc.sawNeg
		s.SawValue = acc.sawValue
	case *minMaxAcc:
		s.Has = acc.has
		if acc.has {
			s.Cur = acc.cur.Literal()
		}
	default:
		panic(fmt.Sprintf("core: unknown accumulator %T", g.acc))
	}
	return s
}

// importGroupState thaws a wire-form state into a live group for f's
// aggregate. The accumulator is always built with f.NewGroup() — never
// left with decode-zero internals — so an empty or zero-count partial (a
// shard whose partition matched no tuples of the group) merges as an exact
// identity: COUNT-distinct keeps a live set, SUM keeps its saw-value flag,
// MIN/MAX its has flag.
func (f Filter) importGroupState(s GroupState) *filterGroup {
	params := make(storage.Tuple, len(s.Params))
	for i, lit := range s.Params {
		params[i] = storage.ParseValue(lit)
	}
	g := &filterGroup{params: params, acc: f.NewGroup(), done: s.Done}
	if s.Done {
		return g
	}
	switch acc := g.acc.(type) {
	case *countAcc:
		acc.n = s.Count
	case *countDistinctAcc:
		for _, lit := range s.Distinct {
			acc.add(storage.ParseValue(lit))
		}
	case *sumAcc:
		acc.sum = s.Sum
		acc.sawNeg = s.SawNeg
		acc.sawValue = s.SawValue
	case *minMaxAcc:
		acc.has = s.Has
		if s.Has {
			acc.cur = storage.ParseValue(s.Cur)
		}
	default:
		panic(fmt.Sprintf("core: unknown accumulator %T", g.acc))
	}
	return g
}

// MergeGroupStates folds per-shard partial states back into the FILTER
// computation's answer: the parameter tuples whose merged aggregate passes
// filter. Parts are merged in slice order (the cluster feeds them in shard
// order) with the same done-flag semantics as the in-process parallel
// group-by, so the result is bit-identical to evaluating the un-sharded
// input on one node. The returned count is the number of distinct groups
// seen across all parts, for observability.
func MergeGroupStates(filter Filter, name string, paramCols []string, parts [][]GroupState) (*storage.Relation, int, error) {
	merged := make(map[string]*filterGroup)
	var buf []byte
	for _, part := range parts {
		for _, s := range part {
			g := filter.importGroupState(s)
			if len(g.params) != len(paramCols) {
				return nil, 0, fmt.Errorf("core: partial group has %d params, want %d", len(g.params), len(paramCols))
			}
			buf = g.params.AppendKey(buf[:0])
			mergeFilterGroup(merged, string(buf), g)
		}
	}
	out := storage.NewRelation(name, paramCols...)
	for _, g := range merged {
		if g.done || g.acc.Passes() {
			out.Insert(g.params)
		}
	}
	return out, len(merged), nil
}
