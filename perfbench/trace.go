package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer. Times are offsets from the
// tracer's epoch. Derived spans carry a duration reported by the engine
// itself (an operator's self time); they are placed back to back from
// their parent's start, so only their lengths are measured.
type Span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"` // 0 for a request's root span
	Req     int           `json:"req"`    // request ID shared by a request's spans
	Name    string        `json:"name"`   // "<layer>.<call>"
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Derived bool          `json:"derived,omitempty"`
}

// Tracer records spans of a single-threaded replay in memory. A nil
// Tracer records nothing, which is how the spans-off replay runs the
// same code path.
type Tracer struct {
	epoch time.Time
	spans []Span
	stack []int // indexes into spans of the open spans
	last  int   // index of the most recently closed span
	req   int
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// BeginRequest opens the root span of the next request.
func (t *Tracer) BeginRequest(name string) {
	if t == nil {
		return
	}
	t.req++
	t.Begin(name)
}

// Begin opens a span under the innermost open span.
func (t *Tracer) Begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name,
		Start: time.Since(t.epoch),
	})
	t.stack = append(t.stack, len(t.spans)-1)
}

// End closes the innermost open span.
func (t *Tracer) End() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Since(t.epoch)
	t.last = i
}

// DeriveLast adds children of the most recently closed span from
// durations the engine measured, laid out back to back from that span's
// start.
func (t *Tracer) DeriveLast(names []string, durs []time.Duration) {
	if t == nil || len(t.spans) == 0 {
		return
	}
	p := t.spans[t.last]
	at := p.Start
	for i, name := range names {
		t.spans = append(t.spans, Span{
			ID: len(t.spans) + 1, Parent: p.ID, Req: t.req, Name: name,
			Start: at, End: at + durs[i], Derived: true,
		})
		at += durs[i]
	}
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// SelfTimes returns each span's self time — its duration minus the part
// of its interval its children cover — summed by span name.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// RootTime sums the durations of root spans (whole requests).
func RootTime(spans []Span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// Layer is the layer part of a span name ("core" of "core.eval").
func Layer(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
