package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"queryflocks/internal/obs"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported: a p90 over 50 samples rests on 5 values and
// moves with each of them.
const minBeyond = 10

// Pct is one reported percentile with the sample count it rests on.
type Pct struct {
	Q      float64 // quantile in (0,1]
	Value  float64
	N      int // samples
	Beyond int // samples strictly above the percentile's rank
}

func (p Pct) String() string {
	return fmt.Sprintf("p%g=%.4f (n=%d, %d beyond)", p.Q*100, p.Value, p.N, p.Beyond)
}

// Percentile returns the nearest-rank q-quantile of samples. It refuses
// (returns an error) when fewer than minBeyond samples lie beyond the
// rank, so a reported tail always has a tail behind it.
func Percentile(samples []float64, q float64) (Pct, error) {
	if q <= 0 || q > 1 {
		return Pct{}, fmt.Errorf("quantile %g outside (0,1]", q)
	}
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if n == 0 || beyond < minBeyond {
		return Pct{}, fmt.Errorf("p%g needs %d samples beyond it, have %d of n=%d", q*100, minBeyond, max(beyond, 0), n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Pct{Q: q, Value: s[rank-1], N: n, Beyond: beyond}, nil
}

// Median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples. It is used for repeated set-up timings,
// where the count is small and no tail is claimed.
func Median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Ratio is a share that carries its base, so a 100% hit rate over two
// lookups never reads like one over two thousand.
type Ratio struct {
	Num, Base float64
}

// Value is Num/Base, or 0 when the base is empty.
func (r Ratio) Value() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Num / r.Base
}

func (r Ratio) String() string {
	if r.Base == 0 {
		return "n/a (base 0)"
	}
	return fmt.Sprintf("%.4f (%g/%g)", r.Value(), r.Num, r.Base)
}

// physicalOps are the operator kinds whose Event.Wall is self time when
// a compiled plan node emits them (ID > 0): each operator starts its
// clock after pulling its input, so the walls of one pipeline do not
// nest. Step, view and decision events time whole subtrees and are not
// operators.
var physicalOps = []obs.Op{
	obs.OpScan, obs.OpBuild, obs.OpJoin, obs.OpSymJoin, obs.OpAntiJoin,
	obs.OpSelect, obs.OpProject, obs.OpGroup, obs.OpMaterialize,
}

// OpWork is what one run report says about its physical operators.
type OpWork struct {
	Self         map[obs.Op]time.Duration // self time by operator kind
	GroupRowsIn  int
	Groups       int
	Survivors    int // rows out of group operators
	IDBatches    int
	BoxedBatches int
	Decisions    int
	Filtered     int // decisions whose FILTER fired
}

// AggregateOps sums a run report's operator events by kind. A group
// event without a plan node ID is the serving memo's group-by: its wall
// also covers the extended-answer plan it ran first, whose operator
// events precede it, so those are subtracted to leave its self time.
// View, step and decision events close such a stretch. A nil report
// yields zero work.
func AggregateOps(r *obs.RunReport) OpWork {
	w := OpWork{Self: make(map[obs.Op]time.Duration, len(physicalOps))}
	if r == nil {
		return w
	}
	var inner time.Duration // plan-node walls since the last closing event
	for _, e := range r.Steps {
		switch {
		case e.Op == obs.OpDecision:
			w.Decisions++
			if e.Filtered {
				w.Filtered++
			}
			inner = 0
		case e.Op == obs.OpView || e.Op == obs.OpStep:
			inner = 0
		case e.Op == obs.OpGroup && e.ID == 0:
			w.Self[obs.OpGroup] += max(e.Wall-inner, 0)
			inner = 0
		case isPhysical(e.Op):
			w.Self[e.Op] += e.Wall
			inner += e.Wall
		}
		if e.Op == obs.OpGroup {
			w.GroupRowsIn += e.RowsIn
			w.Groups += e.Groups
			w.Survivors += e.RowsOut
		}
		if isPhysical(e.Op) {
			w.IDBatches += e.IDBatches
			w.BoxedBatches += e.BoxedBatches
		}
	}
	return w
}

func isPhysical(op obs.Op) bool {
	for _, p := range physicalOps {
		if p == op {
			return true
		}
	}
	return false
}
