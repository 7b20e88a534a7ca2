package physical

import (
	"cmp"
	"fmt"
	"time"

	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/par"
	"queryflocks/internal/storage"
)

// This file is the columnar twin of operators.go: the same operator
// tree, executed over batches of interned uint32 value IDs instead of
// rows of boxed Values. Every probe, dedup, and group key works on IDs
// (dictionary IDs are equal exactly when the values are Equal, so ID
// comparisons decide what AppendKey byte comparisons decide in the row
// path), and comparisons between two IDs of the dictionary's
// order-preserved prefix are integer comparisons. Boxed Values appear
// only at the materialize sink, in comparisons involving constants or
// IDs interned after the build, and in aggregate arithmetic. The two
// paths are bit-identical — same tuples, same order, same batch
// boundaries, same buffered-tuple gauge — so either can serve as the
// other's differential oracle.
//
// One deliberate asymmetry: the row path's repeated-variable checks use
// Go == on Values (kind-sensitive: Int(1) != Float(1)) while IDs are
// semantic (Int(1) and Float(1) share an ID). Columnar scan and join
// therefore run dup checks against the original base tuples, never IDs.

// colBatch is one batch of bindings in columnar interned form: cols[j][i]
// is the dictionary ID of row i's j-th column. n is explicit because a
// batch can have zero columns (unit streams, all-constant scans) while
// still carrying rows.
type colBatch struct {
	n    int
	cols [][]uint32
}

// newColBatch returns an empty batch with the given column count.
func newColBatch(width int) colBatch {
	return colBatch{cols: make([][]uint32, width)}
}

// appendRow copies row i of src onto the end of b (same width).
func (b *colBatch) appendRow(src colBatch, i int) {
	for c := range src.cols {
		b.cols[c] = append(b.cols[c], src.cols[c][i])
	}
	b.n++
}

// gatherRow writes row i's IDs into dst.
func (b colBatch) gatherRow(i int, dst []uint32) {
	for c := range b.cols {
		dst[c] = b.cols[c][i]
	}
}

// packRowOn appends the packed 4-byte-LE encoding of row i's IDs at the
// given column positions to dst — the columnar analogue of AppendKeyOn.
func (b colBatch) packRowOn(dst []byte, cols []int, i int) []byte {
	for _, c := range cols {
		id := b.cols[c][i]
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst
}

// decoder decodes IDs through a lock-free DictView snapshot, refreshing
// the snapshot only when it meets an ID interned after it was taken
// (mid-run interning happens only at materialize barriers).
type decoder struct {
	d    *storage.Dict
	view storage.DictView
}

func newDecoder(d *storage.Dict) *decoder {
	return &decoder{d: d, view: d.View()}
}

func (dc *decoder) value(id uint32) storage.Value {
	if int(id) >= dc.view.Len() {
		dc.view = dc.d.View()
	}
	return dc.view.Value(id)
}

// colValue resolves a check argument in columnar context: constants stay
// boxed, binding columns decode their ID, base columns read the original
// base tuple (exact, no decode).
func (a argRef) colValue(dec *decoder, cur []uint32, base []storage.Tuple, bt int) storage.Value {
	switch a.src {
	case srcConst:
		return a.val
	case srcCur:
		return dec.value(cur[a.pos])
	default:
		return base[bt][a.pos]
	}
}

// colID resolves a non-constant check argument to its dictionary ID.
func (a argRef) colID(cur []uint32, baseCols [][]uint32, bt int) uint32 {
	if a.src == srcCur {
		return cur[a.pos]
	}
	return baseCols[a.pos][bt]
}

// idCompare evaluates one comparison operator over dictionary IDs. Two
// IDs below the dictionary's order-preserved prefix compare as integers:
// there ID order is Value.Compare order and equal IDs are Equal values,
// so the verdict is the one op.Eval gives on the decoded values. Any
// other ID (interned after the build: /mutate rows, hook output) decodes
// and compares by Value. The prefix length is read once, at creation.
type idCompare struct {
	op     datalog.CmpOp
	sorted uint32
	dec    *decoder
}

func newIDCompare(op datalog.CmpOp, dict *storage.Dict) idCompare {
	return idCompare{op: op, sorted: dict.SortedLen(), dec: newDecoder(dict)}
}

func (c idCompare) ids(a, b uint32) bool {
	if a < c.sorted && b < c.sorted {
		return c.op.Test(cmp.Compare(a, b))
	}
	return c.op.Eval(c.dec.value(a), c.dec.value(b))
}

// colCheck is one absorbed check in columnar form: cur is the current
// binding row's IDs (nil at a scan, whose checks never reference binding
// columns) and bt the base-relation row index.
type colCheck func(cur []uint32, bt int) bool

// instantiateCol returns one worker's private columnar check. A
// comparison of two non-constant arguments compares their IDs (see
// idCompare); one with a constant decodes the other side. Membership
// checks probe the check relation's IDSet — ID equality is semantic, so
// the verdicts match the row path's normalized-key ContainsKey probes; a
// constant argument missing from the dictionary can never be a member.
func (c *Check) instantiateCol(dict *storage.Dict, baseTuples []storage.Tuple, baseCols [][]uint32) colCheck {
	if c.kind == checkCmp {
		ic, l, r := newIDCompare(c.op, dict), c.left, c.right
		if l.src != srcConst && r.src != srcConst {
			return func(cur []uint32, bt int) bool {
				return ic.ids(l.colID(cur, baseCols, bt), r.colID(cur, baseCols, bt))
			}
		}
		return func(cur []uint32, bt int) bool {
			return ic.op.Eval(l.colValue(ic.dec, cur, baseTuples, bt), r.colValue(ic.dec, cur, baseTuples, bt))
		}
	}
	want := c.kind == checkMember
	args := c.args
	constIDs := make([]uint32, len(args))
	for i, a := range args {
		if a.src == srcConst {
			id, ok := dict.Lookup(a.val)
			if !ok {
				verdict := !want
				return func([]uint32, int) bool { return verdict }
			}
			constIDs[i] = id
		}
	}
	set := c.rel.IDSet(dict)
	probe := make([]uint32, len(args))
	return func(cur []uint32, bt int) bool {
		for i, a := range args {
			switch a.src {
			case srcConst:
				probe[i] = constIDs[i]
			case srcCur:
				probe[i] = cur[a.pos]
			default:
				probe[i] = baseCols[a.pos][bt]
			}
		}
		return set.Contains(probe) == want
	}
}

func instantiateAllCol(checks []*Check, dict *storage.Dict, baseTuples []storage.Tuple, baseCols [][]uint32) []colCheck {
	if len(checks) == 0 {
		return nil
	}
	out := make([]colCheck, len(checks))
	for i, c := range checks {
		out[i] = c.instantiateCol(dict, baseTuples, baseCols)
	}
	return out
}

// colOperator mirrors operator for columnar batches.
type colOperator interface {
	open(ctx *Ctx) error
	next(ctx *Ctx) (batch colBatch, ok bool, err error)
	close(ctx *Ctx)
}

// newColOp instantiates the columnar runtime state of a node.
func newColOp(p *Plan, n Node) colOperator {
	switch x := n.(type) {
	case *ScanNode:
		return &colScanOp{n: x, id: p.ids[x]}
	case *UnitNode:
		return &colUnitOp{id: p.ids[x]}
	case *JoinNode:
		return &colJoinOp{n: x, id: p.ids[x], buildID: p.ids[x.Input], input: newColOp(p, x.Probe)}
	case *AntiJoinNode:
		return &colAntiJoinOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *SelectNode:
		return &colSelectOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *ProjectNode:
		return &colProjectOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *UnionNode:
		ops := make([]colOperator, len(x.Branches))
		for i, br := range x.Branches {
			ops[i] = newColOp(p, br)
		}
		return &colUnionOp{n: x, id: p.ids[x], branches: ops}
	case *GroupNode:
		return &colGroupOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *MaterializeNode:
		return &colMaterializeOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *SymJoinNode:
		return &colSymJoinOp{n: x, id: p.ids[x], left: newColOp(p, x.Left), right: newColOp(p, x.Right)}
	default:
		panic(fmt.Sprintf("physical: no columnar operator for %T", n))
	}
}

// --- scan ---

type colScanOp struct {
	n  *ScanNode
	id int

	tuples   []storage.Tuple
	baseCols [][]uint32
	pos      int
	checks   []colCheck
	constIDs []uint32
	live     bool // false when a constant is absent from the dictionary

	rowsOut int
	batches int
	wall    time.Duration
}

func (o *colScanOp) open(ctx *Ctx) error {
	rel, err := ctx.DB.Relation(o.n.Pred)
	if err != nil {
		return fmt.Errorf("physical: %w", err)
	}
	if rel.Arity() != o.n.arity {
		return fmt.Errorf("physical: atom %s arity %d vs relation arity %d", o.n.atom, o.n.arity, rel.Arity())
	}
	for _, c := range o.n.checks {
		if err := c.bind(ctx.DB); err != nil {
			return err
		}
	}
	o.tuples = rel.Tuples()
	o.baseCols = rel.InternedColumns(ctx.Dict)
	o.checks = instantiateAllCol(o.n.checks, ctx.Dict, o.tuples, o.baseCols)
	o.live = true
	o.constIDs = make([]uint32, len(o.n.consts))
	for i, c := range o.n.consts {
		id, ok := ctx.Dict.Lookup(c.val)
		if !ok {
			o.live = false // the constant matches no stored value
		}
		o.constIDs[i] = id
	}
	return nil
}

func (o *colScanOp) next(ctx *Ctx) (colBatch, bool, error) {
	if err := ctx.Gate.Check(); err != nil {
		return colBatch{}, false, err
	}
	if !o.live || o.pos >= len(o.tuples) {
		return colBatch{}, false, nil
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	out := newColBatch(len(o.n.newPos))
scan:
	for o.pos < len(o.tuples) && out.n < batchSize {
		i := o.pos
		o.pos++
		for k, c := range o.n.consts {
			if o.baseCols[c.pos][i] != o.constIDs[k] {
				continue scan
			}
		}
		// Repeated variables bind one equality class, so dup checks use
		// Equal on the original tuple, matching the joins' AppendKey
		// semantics (Int(1) and Float(1) are the same value).
		bt := o.tuples[i]
		for _, d := range o.n.dup {
			if !bt[d[0]].Equal(bt[d[1]]) {
				continue scan
			}
		}
		for _, check := range o.checks {
			if !check(nil, i) {
				continue scan
			}
		}
		for j, p := range o.n.newPos {
			out.cols[j] = append(out.cols[j], o.baseCols[p][i])
		}
		out.n++
	}
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return out, true, nil
}

func (o *colScanOp) close(ctx *Ctx) {
	record(ctx, obs.Event{
		Op: obs.OpScan, ID: o.id, Desc: o.n.atom,
		RowsIn: len(o.tuples), RowsOut: o.rowsOut,
		Absorbed: len(o.n.checks), Workers: 1, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- unit ---

type colUnitOp struct {
	id   int
	done bool
}

func (o *colUnitOp) open(*Ctx) error { return nil }

func (o *colUnitOp) next(*Ctx) (colBatch, bool, error) {
	if o.done {
		return colBatch{}, false, nil
	}
	o.done = true
	return colBatch{n: 1}, true, nil
}

func (o *colUnitOp) close(ctx *Ctx) {
	record(ctx, obs.Event{Op: obs.OpScan, ID: o.id, Desc: "unit", RowsIn: 1, RowsOut: 1, Workers: 1, IDBatches: 1})
}

// --- hash join (with its build side) ---

type colJoinOp struct {
	n       *JoinNode
	id      int
	buildID int
	input   colOperator

	rel      *storage.Relation
	tuples   []storage.Tuple
	baseCols [][]uint32
	idx      *storage.IDIndex
	constIDs []uint32
	live     bool
	checks   []colCheck
	pending  colBatch

	buildWall time.Duration
	rowsIn    int
	rowsOut   int
	used      int
	batches   int
	wall      time.Duration
}

func (o *colJoinOp) open(ctx *Ctx) error {
	if err := o.input.open(ctx); err != nil {
		return err
	}
	rel, err := ctx.DB.Relation(o.n.Pred)
	if err != nil {
		return fmt.Errorf("physical: %w", err)
	}
	if rel.Arity() != o.n.arity {
		return fmt.Errorf("physical: atom %s arity %d vs relation arity %d", o.n.atom, o.n.arity, rel.Arity())
	}
	for _, c := range o.n.checks {
		if err := c.bind(ctx.DB); err != nil {
			return err
		}
	}
	o.rel = rel
	o.used = 1
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	o.tuples = rel.Tuples()
	o.baseCols = rel.InternedColumns(ctx.Dict)
	o.idx = rel.IDIndex(ctx.Dict, o.n.Input.idxCols)
	if ctx.Col != nil {
		o.buildWall = time.Since(start)
	}
	o.checks = instantiateAllCol(o.n.checks, ctx.Dict, o.tuples, o.baseCols)
	o.live = true
	o.constIDs = make([]uint32, len(o.n.consts))
	for i, c := range o.n.consts {
		id, ok := ctx.Dict.Lookup(c.val)
		if !ok {
			o.live = false // the constant matches no stored value
		}
		o.constIDs[i] = id
	}
	return nil
}

// probe is the columnar twin of joinOp.probe: it scans binding rows
// [lo, hi) against the ID index and emits surviving joined rows. Callers
// supply private checks; all other state is read-only, so concurrent
// probes never share mutable state. Output order matches the row path:
// binding rows in order, matches in base insertion order.
func (o *colJoinOp) probe(batch colBatch, lo, hi int, cks []colCheck) colBatch {
	n := o.n
	ids := make([]uint32, len(o.constIDs)+len(n.probeCur))
	copy(ids, o.constIDs)
	var cur []uint32
	if len(cks) > 0 {
		cur = make([]uint32, len(batch.cols))
	}
	out := newColBatch(len(n.cols))
	width := len(batch.cols)
	for i := lo; i < hi; i++ {
		for k, p := range n.probeCur {
			ids[len(o.constIDs)+k] = batch.cols[p][i]
		}
		matches := o.idx.Lookup(ids)
		if len(matches) == 0 {
			continue
		}
		if cur != nil {
			batch.gatherRow(i, cur)
		}
	match:
		for _, r := range matches {
			bt := o.tuples[r]
			for _, d := range n.dup {
				if !bt[d[0]].Equal(bt[d[1]]) {
					continue match
				}
			}
			for _, check := range cks {
				if !check(cur, int(r)) {
					continue match
				}
			}
			for c := 0; c < width; c++ {
				out.cols[c] = append(out.cols[c], batch.cols[c][i])
			}
			for j, p := range n.newPos {
				out.cols[width+j] = append(out.cols[width+j], o.baseCols[p][r])
			}
			out.n++
		}
	}
	return out
}

func (o *colJoinOp) next(ctx *Ctx) (colBatch, bool, error) {
	// Mirror joinOp: emit probe output in batch-size chunks.
	if o.pending.n > 0 {
		return o.emitChunk(), true, nil
	}
	batch, ok, err := o.input.next(ctx)
	if err != nil || !ok {
		return colBatch{}, false, err
	}
	if err := ctx.Gate.Check(); err != nil {
		return colBatch{}, false, err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	var out colBatch
	if !o.live {
		out = newColBatch(len(o.n.cols))
	} else {
		w := par.Resolve(ctx.Workers)
		if batch.n < minParallelRows {
			w = 1
		}
		if w <= 1 {
			out = o.probe(batch, 0, batch.n, o.checks)
		} else {
			// Range-partitioned probe concatenated in worker order: the
			// same split as the row path, hence the same output order.
			outs := make([]colBatch, par.Chunks(batch.n, w))
			par.Run(batch.n, w, func(wi, lo, hi int) {
				outs[wi] = o.probe(batch, lo, hi, instantiateAllCol(o.n.checks, ctx.Dict, o.tuples, o.baseCols))
			})
			total := 0
			for _, part := range outs {
				total += part.n
			}
			out = newColBatch(len(o.n.cols))
			for c := range out.cols {
				out.cols[c] = make([]uint32, 0, total)
			}
			for _, part := range outs {
				for c := range part.cols {
					out.cols[c] = append(out.cols[c], part.cols[c]...)
				}
				out.n += part.n
			}
			if w > o.used {
				o.used = w
			}
		}
	}
	o.rowsIn += batch.n
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	o.pending = out
	return o.emitChunk(), true, nil
}

// emitChunk pops the next batch-size chunk of pending probe output,
// preserving emission order exactly.
func (o *colJoinOp) emitChunk() colBatch {
	k := o.pending.n
	if k > batchSize {
		k = batchSize
	}
	chunk := colBatch{n: k, cols: make([][]uint32, len(o.pending.cols))}
	for c := range o.pending.cols {
		chunk.cols[c] = o.pending.cols[c][:k:k]
		o.pending.cols[c] = o.pending.cols[c][k:]
	}
	o.pending.n -= k
	return chunk
}

func (o *colJoinOp) close(ctx *Ctx) {
	o.input.close(ctx)
	buildRows := 0
	if o.rel != nil {
		buildRows = o.rel.Len()
	}
	record(ctx, obs.Event{
		Op: obs.OpBuild, ID: o.buildID, Desc: o.n.Input.Desc(),
		RowsIn: buildRows, RowsOut: buildRows, Workers: 1, Wall: o.buildWall,
	})
	record(ctx, obs.Event{
		Op: obs.OpJoin, ID: o.id, Desc: o.n.atom,
		RowsIn: o.rowsIn, RowsOut: o.rowsOut,
		Absorbed: len(o.n.checks), Workers: o.used, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- anti-join ---

type colAntiJoinOp struct {
	n     *AntiJoinNode
	id    int
	input colOperator

	set      *storage.IDSet
	constIDs []uint32
	live     bool // false when a constant is absent: nothing ever matches

	rowsIn  int
	rowsOut int
	used    int
	batches int
	wall    time.Duration
}

func (o *colAntiJoinOp) open(ctx *Ctx) error {
	if err := o.input.open(ctx); err != nil {
		return err
	}
	rel, err := ctx.DB.Relation(o.n.Pred)
	if err != nil {
		return fmt.Errorf("physical: %w", err)
	}
	if rel.Arity() != o.n.arity {
		return fmt.Errorf("physical: atom %s arity %d vs relation arity %d", o.n.atom, o.n.arity, rel.Arity())
	}
	o.set = rel.IDSet(ctx.Dict)
	o.used = 1
	o.live = true
	o.constIDs = make([]uint32, len(o.n.srcPos))
	for j, p := range o.n.srcPos {
		if p >= 0 {
			continue
		}
		id, ok := ctx.Dict.Lookup(o.n.constVal[j])
		if !ok {
			o.live = false
		}
		o.constIDs[j] = id
	}
	return nil
}

// filter keeps the binding rows of [lo, hi) whose negated-atom key is
// NOT in the base relation's ID set.
func (o *colAntiJoinOp) filter(batch colBatch, lo, hi int, ids []uint32) colBatch {
	n := o.n
	out := newColBatch(len(batch.cols))
	for i := lo; i < hi; i++ {
		if o.live {
			for j, p := range n.srcPos {
				if p < 0 {
					ids[j] = o.constIDs[j]
				} else {
					ids[j] = batch.cols[p][i]
				}
			}
			if o.set.Contains(ids) {
				continue
			}
		}
		out.appendRow(batch, i)
	}
	return out
}

func (o *colAntiJoinOp) next(ctx *Ctx) (colBatch, bool, error) {
	batch, ok, err := o.input.next(ctx)
	if err != nil || !ok {
		return colBatch{}, false, err
	}
	if err := ctx.Gate.Check(); err != nil {
		return colBatch{}, false, err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	w := par.Resolve(ctx.Workers)
	if batch.n < minParallelRows {
		w = 1
	}
	var out colBatch
	if w <= 1 {
		out = o.filter(batch, 0, batch.n, make([]uint32, o.n.arity))
	} else {
		outs := make([]colBatch, par.Chunks(batch.n, w))
		par.Run(batch.n, w, func(wi, lo, hi int) {
			outs[wi] = o.filter(batch, lo, hi, make([]uint32, o.n.arity))
		})
		out = newColBatch(len(batch.cols))
		for _, part := range outs {
			for c := range part.cols {
				out.cols[c] = append(out.cols[c], part.cols[c]...)
			}
			out.n += part.n
		}
		if w > o.used {
			o.used = w
		}
	}
	o.rowsIn += batch.n
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return out, true, nil
}

func (o *colAntiJoinOp) close(ctx *Ctx) {
	o.input.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpAntiJoin, ID: o.id, Desc: o.n.atom,
		RowsIn: o.rowsIn, RowsOut: o.rowsOut, Workers: o.used, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- select ---

type colSelectOp struct {
	n     *SelectNode
	id    int
	input colOperator

	cmp idCompare

	rowsIn  int
	rowsOut int
	batches int
	wall    time.Duration
}

func (o *colSelectOp) open(ctx *Ctx) error {
	o.cmp = newIDCompare(o.n.op, ctx.Dict)
	return o.input.open(ctx)
}

// argValue resolves a select argument: constants stay boxed, binding
// columns decode (representatives are Equal to the originals, so the
// Compare-based verdict is identical to the row path's).
func (o *colSelectOp) argValue(a argRef, batch colBatch, i int) storage.Value {
	if a.src == srcConst {
		return a.val
	}
	return o.cmp.dec.value(batch.cols[a.pos][i])
}

func (o *colSelectOp) next(ctx *Ctx) (colBatch, bool, error) {
	batch, ok, err := o.input.next(ctx)
	if err != nil || !ok {
		return colBatch{}, false, err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	n := o.n
	byID := n.left.src != srcConst && n.right.src != srcConst
	out := newColBatch(len(batch.cols))
	for i := 0; i < batch.n; i++ {
		var keep bool
		if byID {
			keep = o.cmp.ids(batch.cols[n.left.pos][i], batch.cols[n.right.pos][i])
		} else {
			keep = n.op.Eval(o.argValue(n.left, batch, i), o.argValue(n.right, batch, i))
		}
		if keep {
			out.appendRow(batch, i)
		}
	}
	o.rowsIn += batch.n
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return out, true, nil
}

func (o *colSelectOp) close(ctx *Ctx) {
	o.input.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpSelect, ID: o.id, Desc: o.n.desc,
		RowsIn: o.rowsIn, RowsOut: o.rowsOut, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- project ---

// idSeen is an incremental ID-tuple seen-set: the columnar dedup state.
// One and two columns key on the IDs directly; wider tuples on the
// packed encoding.
type idSeen struct {
	arity int
	m1    map[uint32]struct{}
	m2    map[uint64]struct{}
	mn    map[string]struct{}
	buf   []byte
}

func newIDSeen(arity int) *idSeen {
	s := &idSeen{arity: arity}
	switch arity {
	case 1:
		s.m1 = make(map[uint32]struct{})
	case 2:
		s.m2 = make(map[uint64]struct{})
	default:
		s.mn = make(map[string]struct{})
	}
	return s
}

// add records the projection of batch row i onto pos, reporting whether
// it was new.
func (s *idSeen) add(batch colBatch, pos []int, i int) bool {
	switch s.arity {
	case 1:
		k := batch.cols[pos[0]][i]
		if _, dup := s.m1[k]; dup {
			return false
		}
		s.m1[k] = struct{}{}
	case 2:
		k := uint64(batch.cols[pos[0]][i])<<32 | uint64(batch.cols[pos[1]][i])
		if _, dup := s.m2[k]; dup {
			return false
		}
		s.m2[k] = struct{}{}
	default:
		s.buf = batch.packRowOn(s.buf[:0], pos, i)
		if _, dup := s.mn[string(s.buf)]; dup {
			return false
		}
		s.mn[string(s.buf)] = struct{}{}
	}
	return true
}

func (s *idSeen) len() int {
	switch s.arity {
	case 1:
		return len(s.m1)
	case 2:
		return len(s.m2)
	default:
		return len(s.mn)
	}
}

type colProjectOp struct {
	n     *ProjectNode
	id    int
	input colOperator

	seen     *idSeen
	released bool

	rowsIn  int
	rowsOut int
	batches int
	wall    time.Duration
}

func (o *colProjectOp) open(ctx *Ctx) error {
	if o.n.Dedup {
		o.seen = newIDSeen(len(o.n.pos))
	}
	return o.input.open(ctx)
}

func (o *colProjectOp) next(ctx *Ctx) (colBatch, bool, error) {
	batch, ok, err := o.input.next(ctx)
	if err != nil || !ok {
		if o.seen != nil && !o.released {
			ctx.track(-o.seen.len())
			o.released = true
		}
		return colBatch{}, false, err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	var out colBatch
	if o.seen == nil {
		// Pure projection: share the input's column slices.
		out = colBatch{n: batch.n, cols: make([][]uint32, len(o.n.pos))}
		for j, p := range o.n.pos {
			out.cols[j] = batch.cols[p]
		}
	} else {
		out = newColBatch(len(o.n.pos))
		for i := 0; i < batch.n; i++ {
			if !o.seen.add(batch, o.n.pos, i) {
				continue
			}
			ctx.track(1)
			for j, p := range o.n.pos {
				out.cols[j] = append(out.cols[j], batch.cols[p][i])
			}
			out.n++
		}
	}
	o.rowsIn += batch.n
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return out, true, nil
}

func (o *colProjectOp) close(ctx *Ctx) {
	o.input.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpProject, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.rowsIn, RowsOut: o.rowsOut, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- union ---

type colUnionOp struct {
	n        *UnionNode
	id       int
	branches []colOperator
	cur      int

	rowsOut int
	batches int
}

func (o *colUnionOp) open(ctx *Ctx) error {
	for _, br := range o.branches {
		if err := br.open(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (o *colUnionOp) next(ctx *Ctx) (colBatch, bool, error) {
	for o.cur < len(o.branches) {
		batch, ok, err := o.branches[o.cur].next(ctx)
		if err != nil {
			return colBatch{}, false, err
		}
		if ok {
			o.rowsOut += batch.n
			o.batches++
			return batch, true, nil
		}
		o.cur++
	}
	return colBatch{}, false, nil
}

func (o *colUnionOp) close(ctx *Ctx) {
	for _, br := range o.branches {
		br.close(ctx)
	}
	record(ctx, obs.Event{
		Op: obs.OpUnion, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.rowsOut, RowsOut: o.rowsOut, IDBatches: o.batches,
	})
}

// --- group-filter ---

type colGroupOp struct {
	n     *GroupNode
	id    int
	input colOperator

	paramPos []int
	headPos  []int

	built   bool
	params  []uint32 // group g's parameter IDs at [g*NParams, (g+1)*NParams)
	passing []int32  // passing group indices, in first-seen order
	emitPos int

	groupsN int
	rowsIn  int
	rowsOut int
	batches int
	wall    time.Duration
}

func (o *colGroupOp) open(ctx *Ctx) error {
	if err := o.input.open(ctx); err != nil {
		return err
	}
	arity := len(o.n.Probe.Columns())
	o.paramPos = make([]int, o.n.NParams)
	for i := range o.paramPos {
		o.paramPos[i] = i
	}
	o.headPos = make([]int, arity-o.n.NParams)
	for i := range o.headPos {
		o.headPos[i] = o.n.NParams + i
	}
	return nil
}

// idKeys assigns dense indices, in first-seen order, to the distinct
// projections of batch rows onto pos. Up to two columns key a uint64 of
// the IDs themselves; wider projections key their packed encoding.
type idKeys struct {
	pos    []int
	narrow map[uint64]int32
	wide   map[string]int32
	buf    []byte
}

func newIDKeys(pos []int) *idKeys {
	k := &idKeys{pos: pos}
	if len(pos) <= 2 {
		k.narrow = make(map[uint64]int32)
	} else {
		k.wide = make(map[string]int32)
	}
	return k
}

// index returns row i's index, assigning next when the projection is new.
func (k *idKeys) index(batch colBatch, i int, next int32) (idx int32, isNew bool) {
	if k.narrow != nil {
		var key uint64
		for _, p := range k.pos {
			key = key<<32 | uint64(batch.cols[p][i])
		}
		if idx, ok := k.narrow[key]; ok {
			return idx, false
		}
		k.narrow[key] = next
		return next, true
	}
	k.buf = batch.packRowOn(k.buf[:0], k.pos, i)
	if idx, ok := k.wide[string(k.buf)]; ok {
		return idx, false
	}
	k.wide[string(k.buf)] = next
	return next, true
}

// headSeen is the (group, head) dedup set: a head of at most one column
// keys on (group index, head ID) as one uint64, a wider head on the group
// index followed by the packed head IDs.
type headSeen struct {
	pos    []int
	narrow map[uint64]struct{}
	wide   map[string]struct{}
	buf    []byte
}

func newHeadSeen(pos []int) *headSeen {
	s := &headSeen{pos: pos}
	if len(pos) <= 1 {
		s.narrow = make(map[uint64]struct{})
	} else {
		s.wide = make(map[string]struct{})
	}
	return s
}

// add records row i's head in group g, reporting whether it was new.
func (s *headSeen) add(batch colBatch, i int, g int32) bool {
	if s.narrow != nil {
		key := uint64(g) << 32
		if len(s.pos) == 1 {
			key |= uint64(batch.cols[s.pos[0]][i])
		}
		if _, dup := s.narrow[key]; dup {
			return false
		}
		s.narrow[key] = struct{}{}
		return true
	}
	s.buf = append(s.buf[:0], byte(g), byte(g>>8), byte(g>>16), byte(g>>24))
	s.buf = batch.packRowOn(s.buf, s.pos, i)
	if _, dup := s.wide[string(s.buf)]; dup {
		return false
	}
	s.wide[string(s.buf)] = struct{}{}
	return true
}

// build mirrors groupOp.build over IDs: group and (group, head) dedup
// keys are IDs instead of AppendKey bytes, and group state lives in flat
// per-group slices. When the FILTER counts whole distinct head tuples —
// COUNT(*), or COUNT of the only head column — each new (group, head)
// pair is one increment of a plain counter, because the dedup already
// made the heads distinct. Other aggregates get their accumulator fed a
// reused head tuple in which only the aggregated column is decoded.
// Arrival order, the Done short-circuit, and the gauge accounting are
// identical to the row path.
func (o *colGroupOp) build(ctx *Ctx) error {
	target := o.n.Grouper.Target()
	counter := o.n.Grouper.Counter()
	if target >= 0 && len(o.headPos) != 1 {
		counter = nil // COUNT of one column of a wider head counts distinct values
	}
	groups := newIDKeys(o.paramPos)
	seen := newHeadSeen(o.headPos)
	var (
		done   []bool
		counts []int64    // counter mode
		accs   []GroupAcc // accumulator mode
		head   storage.Tuple
		dec    *decoder
	)
	if counter == nil {
		head = make(storage.Tuple, len(o.headPos))
		dec = newDecoder(ctx.Dict)
	}
	retained := 0
	for {
		batch, ok, err := o.input.next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var start time.Time
		if ctx.Col != nil {
			start = time.Now()
		}
		for i := 0; i < batch.n; i++ {
			g, isNew := groups.index(batch, i, int32(len(done)))
			if isNew {
				for _, p := range o.paramPos {
					o.params = append(o.params, batch.cols[p][i])
				}
				done = append(done, false)
				if counter != nil {
					counts = append(counts, 0)
				} else {
					accs = append(accs, o.n.Grouper.NewGroup())
				}
				ctx.track(1)
			}
			if done[g] || !seen.add(batch, i, g) {
				continue
			}
			ctx.track(1)
			retained++
			if counter != nil {
				counts[g]++
				_, done[g] = counter(counts[g])
				continue
			}
			if target >= 0 {
				head[target] = dec.value(batch.cols[o.headPos[target]][i])
			}
			accs[g].Add(head)
			done[g] = accs[g].Done()
		}
		o.rowsIn += batch.n
		o.batches++
		if ctx.Col != nil {
			o.wall += time.Since(start)
		}
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	for g := range done {
		passes := done[g]
		switch {
		case passes:
		case counter != nil:
			passes, _ = counter(counts[g])
		default:
			passes = accs[g].Passes()
		}
		if passes {
			o.passing = append(o.passing, int32(g))
		}
	}
	o.groupsN = len(done)
	o.rowsOut = len(o.passing)
	ctx.track(-(len(done) + retained))
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	o.built = true
	return nil
}

func (o *colGroupOp) next(ctx *Ctx) (colBatch, bool, error) {
	if !o.built {
		if err := o.build(ctx); err != nil {
			return colBatch{}, false, err
		}
	}
	if o.emitPos >= len(o.passing) {
		return colBatch{}, false, nil
	}
	end := o.emitPos + batchSize
	if end > len(o.passing) {
		end = len(o.passing)
	}
	np := len(o.paramPos)
	out := newColBatch(np)
	for _, g := range o.passing[o.emitPos:end] {
		for j, id := range o.params[int(g)*np : int(g+1)*np] {
			out.cols[j] = append(out.cols[j], id)
		}
		out.n++
	}
	o.emitPos = end
	return out, true, nil
}

func (o *colGroupOp) close(ctx *Ctx) {
	o.input.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpGroup, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.rowsIn, RowsOut: o.rowsOut,
		Groups: o.groupsN, Workers: 1, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- materialize ---

type colMaterializeOp struct {
	n     *MaterializeNode
	id    int
	input colOperator

	rel      *storage.Relation
	sink     bool
	done     bool
	emitPos  int
	released bool

	rowsIn  int
	batches int
	wall    time.Duration
}

func (o *colMaterializeOp) open(ctx *Ctx) error { return o.input.open(ctx) }

// materialize drains the input, decoding each row back to boxed Values —
// the one place the columnar pipeline re-boxes — and inserting in
// arrival order, so the relation is identical to the row path's (same
// tuples, same insertion order, same normalized dedup keys). Duplicates
// are detected on a scratch tuple before anything is allocated.
func (o *colMaterializeOp) materialize(ctx *Ctx) error {
	rel := storage.NewRelation(o.n.Name, o.n.cols...)
	dec := newDecoder(ctx.Dict)
	width := len(o.n.cols)
	scratch := make(storage.Tuple, width)
	var keyBuf []byte
	for {
		batch, ok, err := o.input.next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var start time.Time
		if ctx.Col != nil {
			start = time.Now()
		}
		for i := 0; i < batch.n; i++ {
			for c := 0; c < width; c++ {
				scratch[c] = dec.value(batch.cols[c][i])
			}
			keyBuf = scratch.AppendKey(keyBuf[:0])
			if rel.ContainsKey(keyBuf) {
				continue
			}
			if rel.Insert(scratch.Clone()) {
				ctx.track(1)
			}
		}
		o.rowsIn += batch.n
		o.batches++
		if o.sink {
			if err := ctx.Gate.CheckOutput(rel.Len()); err != nil {
				return err
			}
		}
		if ctx.Col != nil {
			o.wall += time.Since(start)
		}
	}
	if o.n.Hook != nil {
		if err := ctx.Gate.Check(); err != nil {
			return err
		}
		reduced, err := o.n.Hook(rel)
		if err != nil {
			return err
		}
		if reduced != rel {
			ctx.track(reduced.Len() - rel.Len())
			rel = reduced
		}
	}
	if o.n.Register != nil {
		if err := o.n.Register(rel); err != nil {
			return err
		}
	}
	o.rel = rel
	o.done = true
	return nil
}

func (o *colMaterializeOp) next(ctx *Ctx) (colBatch, bool, error) {
	if !o.done {
		if err := o.materialize(ctx); err != nil {
			return colBatch{}, false, err
		}
	}
	tuples := o.rel.Tuples()
	if o.emitPos >= len(tuples) {
		if !o.released {
			ctx.track(-len(tuples))
			o.released = true
		}
		return colBatch{}, false, nil
	}
	end := o.emitPos + batchSize
	if end > len(tuples) {
		end = len(tuples)
	}
	// Re-intern the barrier's tuples to continue in ID form. All values
	// are dictionary hits except ones a Hook introduced.
	out := newColBatch(len(o.n.cols))
	for _, t := range tuples[o.emitPos:end] {
		for c, v := range t {
			out.cols[c] = append(out.cols[c], ctx.Dict.Intern(v))
		}
		out.n++
	}
	o.emitPos = end
	return out, true, nil
}

func (o *colMaterializeOp) close(ctx *Ctx) {
	o.input.close(ctx)
	rows := 0
	if o.rel != nil {
		rows = o.rel.Len()
	}
	record(ctx, obs.Event{
		Op: obs.OpMaterialize, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.rowsIn, RowsOut: rows, Wall: o.wall,
		IDBatches: o.batches,
	})
}
