package dbtoaster

import (
	"encoding/binary"
	"fmt"
	"math"

	"squall/internal/expr"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// AggKind selects the maintained aggregate.
type AggKind uint8

const (
	// AggCount maintains COUNT(*).
	AggCount AggKind = iota
	// AggSum maintains SUM(expr) (and the count, so AVG = Sum/Cnt is free).
	AggSum
)

// ColRef names an expression over one relation's tuples.
type ColRef struct {
	Rel int
	E   expr.Expr
}

// AggSpec describes the aggregation query the operator maintains:
// SELECT GroupBy..., AGG(...) FROM joined relations GROUP BY GroupBy...
type AggSpec struct {
	GroupBy []ColRef
	Kind    AggKind
	Sum     *ColRef // required when Kind == AggSum
}

// AggDelta is one increment to the query result: the group key, a count
// delta and a sum delta.
type AggDelta struct {
	Group types.Tuple
	Cnt   int64
	Sum   float64
}

// slotSpec describes one signature slot of a view: either the inside side of
// a boundary-crossing conjunct or a group-by column of an inside relation.
type slotSpec struct {
	rel int
	e   expr.Expr
	// identity for wiring: conjunct id (>=0) or -1-groupIdx for group slots.
	id int
}

// aggAcc aggregates all join combinations of a view sharing one signature;
// its index is the signature's slot in the view's key table.
type aggAcc struct {
	cnt int64
	sum float64
}

// viewProbe indexes a view's entries by the signature slots of the
// conjuncts connecting the view to one outside relation. Each distinct
// probe key is interned once; the entries carrying it form a list threaded
// through next, so a probe verifies its key bytes once and then walks
// entries without further checks.
type viewProbe struct {
	rel   int   // the outside relation
	slots []int // signature slot positions forming the key, by conjunct id
	keys  slab.KeyTable
	head  []int32 // per key slot: the most recent entry carrying the key
	next  []int32 // per entry: the next entry under the same key, -1 ends
}

// aview is one aggregate-annotated materialized view. Its state is flat:
// signatures are wire-encoded rows interned in a key table (entry = slot),
// aggregates are pointer-free slots, and probe indexes are key tables plus
// int32 lists, so the GC never walks per-entry objects.
type aview struct {
	mask   uint64
	sig    []slotSpec
	sigs   slab.KeyTable
	acc    []aggAcc
	probes []viewProbe
}

// probeFor returns the view's probe index for outside relation rel.
func (v *aview) probeFor(rel int) *viewProbe {
	for i := range v.probes {
		if v.probes[i].rel == rel {
			return &v.probes[i]
		}
	}
	return nil
}

// operand is one value an arriving row contributes to its deltas: a probe
// key field or a signature slot. Plain column refs are read straight off
// the encoded row; anything else is evaluated on the decoded arrival.
type operand struct {
	col   int       // >= 0: column of the arriving row
	e     expr.Expr // the expression (evaluated when col < 0)
	canon bool      // join-key operand: integral floats encode as ints
}

// relPlan is everything an arrival of one relation needs: its operands, the
// SUM argument when the relation carries it, and the wirings to run.
type relPlan struct {
	ops       []operand
	maxCol    int  // highest column any lowered operand reads
	needTuple bool // some operand (or the SUM) is not a plain column ref
	sumHere   bool // the relation carries the SUM argument
	sumCol    int  // >= 0: the SUM argument is this column of the arrival
	wires     []*wiring
}

// wiring precomputes, for one (target view V, arriving relation rel) pair,
// how to assemble V's delta from the arriving row and the component views.
type wiring struct {
	target *aview
	comps  []wcomp
	// sig sources each target signature slot: an operand of the arrival
	// (comp < 0) or a slot of a component entry's stored signature.
	sig []sigSrc
	// sumT: the SUM argument comes from the arrival. Otherwise sumComp is
	// the component holding the SUM expression's relation (-1 if absent).
	sumT    bool
	sumComp int
}

// wcomp is one component view of a wiring: its probe index for the
// arriving relation and the operand range [keyLo, keyHi) forming the key.
type wcomp struct {
	v            *aview
	probe        *viewProbe
	keyLo, keyHi int
	fields       bool // the target signature reads this component's slots
}

// sigSrc names the source of one target signature slot.
type sigSrc struct {
	comp int // component index, or -1 for an operand of the arrival
	pos  int // component signature slot, or operand index
}

// AggJoin is the aggregate-view DBToaster operator for equi-joins. Its
// per-tuple cost scales with the number of distinct signatures (groups ×
// boundary keys) touched rather than the number of matching combinations —
// the higher-order delta idea of [9].
//
// OnRow is the single core: it reads the arrival through a wire.Cursor,
// builds every delta signature in reused scratch by splicing encoded field
// bytes (column-ref slots from the arriving row, the rest from component
// entries' stored rows), and merges it into the target view's key table. In
// steady state (every signature already present) an arrival allocates
// nothing. OnTuple is an adapter over it.
type AggJoin struct {
	g      *expr.JoinGraph
	spec   AggSpec
	views  []*aview // by relation mask; nil for disconnected masks
	plans  []relPlan
	full   uint64
	result *aview

	// Per-arrival scratch. An AggJoin runs single-threaded per operator
	// instance (one bolt task), so these buffers are reused across calls;
	// nothing stored here outlives one call.
	tup   types.Tuple   // decoded arrival, for non-column operands only
	opBuf []byte        // encoded operand bytes, back to back
	opEnd []int32       // opEnd[i] = end of operand i in opBuf
	heads []int32       // per component: first entry under the probe key
	combo []int32       // per component: current entry of the cross product
	ccur  []wire.Cursor // per component: the current entry's stored signature
	sig   []byte        // the delta signature being built
	icur  wire.Cursor   // parses a new signature to index it
	key   []byte        // probe key of a new signature
	part  []byte        // partial result row being emitted
	one   [1]types.Value

	// OnTuple adapter scratch: the encoded arrival and the decoded result
	// deltas of the last call.
	enc     []byte
	encCur  wire.Cursor
	dcur    wire.Cursor
	deltas  []AggDelta
	groups  types.Tuple
	collect func(partial []byte) error
}

// NewAggJoin builds the operator. The join must be equi-only (theta joins go
// through TupleJoin plus external aggregation). No view state is allocated
// until the first arrival.
func NewAggJoin(g *expr.JoinGraph, spec AggSpec) (*AggJoin, error) {
	if !g.IsEquiOnly() {
		return nil, fmt.Errorf("dbtoaster: AggJoin supports equi-joins only")
	}
	if spec.Kind == AggSum && spec.Sum == nil {
		return nil, fmt.Errorf("dbtoaster: AggSum needs a Sum expression")
	}
	for _, gcol := range spec.GroupBy {
		if gcol.Rel < 0 || gcol.Rel >= g.NumRels {
			return nil, fmt.Errorf("dbtoaster: group-by relation %d out of range", gcol.Rel)
		}
	}
	a := &AggJoin{g: g, spec: spec, full: (uint64(1) << g.NumRels) - 1}
	a.views = make([]*aview, a.full+1)
	for mask := uint64(1); mask <= a.full; mask++ {
		if g.Connected(mask) {
			a.views[mask] = a.newView(mask)
		}
	}
	if a.views[a.full] == nil {
		return nil, fmt.Errorf("dbtoaster: join graph is disconnected; AggJoin needs a connected query")
	}
	a.result = a.views[a.full]
	a.plans = make([]relPlan, g.NumRels)
	maxComps := 0
	for rel := 0; rel < g.NumRels; rel++ {
		p := &a.plans[rel]
		p.sumCol = -1
		for _, v := range a.views {
			if v == nil || v.mask&(1<<rel) == 0 {
				continue
			}
			w, err := a.wire(v.mask, rel, p)
			if err != nil {
				return nil, err
			}
			p.wires = append(p.wires, w)
			maxComps = max(maxComps, len(w.comps))
		}
		p.maxCol = -1
		for _, o := range p.ops {
			p.maxCol = max(p.maxCol, o.col)
			p.needTuple = p.needTuple || o.col < 0
		}
		if p.sumHere = spec.Sum != nil && spec.Sum.Rel == rel; p.sumHere {
			if c, ok := expr.ColIndex(spec.Sum.E); ok && c >= 0 {
				p.sumCol = c
				p.maxCol = max(p.maxCol, c)
			} else {
				p.needTuple = true
			}
		}
	}
	a.heads = make([]int32, maxComps)
	a.combo = make([]int32, maxComps)
	a.ccur = make([]wire.Cursor, maxComps)
	return a, nil
}

// newView lays out a view's signature: the inside sides of boundary-crossing
// conjuncts (by conjunct id) then the inside group-by columns (by position),
// plus one probe index per adjacent outside relation.
func (a *AggJoin) newView(mask uint64) *aview {
	v := &aview{mask: mask}
	for ci, c := range a.g.Conjuncts {
		lin := mask&(1<<c.LRel) != 0
		rin := mask&(1<<c.RRel) != 0
		if lin && !rin {
			v.sig = append(v.sig, slotSpec{rel: c.LRel, e: c.Left, id: ci})
		} else if rin && !lin {
			v.sig = append(v.sig, slotSpec{rel: c.RRel, e: c.Right, id: ci})
		}
	}
	for gi, gcol := range a.spec.GroupBy {
		if mask&(1<<gcol.Rel) != 0 {
			v.sig = append(v.sig, slotSpec{rel: gcol.Rel, e: gcol.E, id: -1 - gi})
		}
	}
	for r := 0; r < a.g.NumRels; r++ {
		if mask&(1<<r) != 0 {
			continue
		}
		var slots []int
		for si, s := range v.sig {
			if s.id < 0 {
				continue
			}
			c := a.g.Conjuncts[s.id]
			if c.LRel == r || c.RRel == r {
				slots = append(slots, si)
			}
		}
		if len(slots) > 0 {
			v.probes = append(v.probes, viewProbe{rel: r, slots: slots})
		}
	}
	return v
}

// newOperand lowers e to a column read when it is a plain column ref.
func newOperand(e expr.Expr, canon bool) operand {
	col, ok := expr.ColIndex(e)
	if !ok || col < 0 {
		col = -1
	}
	return operand{col: col, e: e, canon: canon}
}

// operand returns the index of a signature operand, sharing one column read
// among every slot that splices the same column the same way.
func (p *relPlan) operand(e expr.Expr, canon bool) int {
	o := newOperand(e, canon)
	if o.col >= 0 {
		for i, x := range p.ops {
			if x.col == o.col && x.canon == canon {
				return i
			}
		}
	}
	p.ops = append(p.ops, o)
	return len(p.ops) - 1
}

// wire precomputes the delta propagation for target view `mask` on arrival
// of relation rel, registering the operands it reads in p.
func (a *AggJoin) wire(mask uint64, rel int, p *relPlan) (*wiring, error) {
	w := &wiring{target: a.views[mask], sumComp: -1, sumT: a.spec.Sum != nil && a.spec.Sum.Rel == rel}
	for _, cm := range a.g.Components(mask &^ (1 << rel)) {
		cv := a.views[cm]
		if cv == nil {
			return nil, fmt.Errorf("dbtoaster: component %b has no view", cm)
		}
		probe := cv.probeFor(rel)
		if probe == nil {
			return nil, fmt.Errorf("dbtoaster: component %b has no probe index for rel %d", cm, rel)
		}
		// Probe key from the arrival: rel-side expressions of the conjuncts
		// between rel and the component, by conjunct id (the order of the
		// probe slots), as one contiguous operand range.
		c := wcomp{v: cv, probe: probe, keyLo: len(p.ops)}
		for _, cj := range a.g.Conjuncts {
			switch {
			case cj.LRel == rel && cm&(1<<cj.RRel) != 0:
				p.ops = append(p.ops, newOperand(cj.Left, true))
			case cj.RRel == rel && cm&(1<<cj.LRel) != 0:
				p.ops = append(p.ops, newOperand(cj.Right, true))
			}
		}
		c.keyHi = len(p.ops)
		if c.keyHi-c.keyLo != len(probe.slots) {
			return nil, fmt.Errorf("dbtoaster: probe arity mismatch for view %b from rel %d", cm, rel)
		}
		w.comps = append(w.comps, c)
		if a.spec.Sum != nil && cm&(1<<a.spec.Sum.Rel) != 0 {
			w.sumComp = len(w.comps) - 1
		}
	}
	for _, s := range w.target.sig {
		if s.rel == rel {
			w.sig = append(w.sig, sigSrc{comp: -1, pos: p.operand(s.e, s.id >= 0)})
			continue
		}
		src := sigSrc{comp: -1, pos: -1}
		for j, c := range w.comps {
			if c.v.mask&(1<<s.rel) == 0 {
				continue
			}
			for si, cs := range c.v.sig {
				if cs.id == s.id && cs.rel == s.rel {
					src = sigSrc{comp: j, pos: si}
					w.comps[j].fields = true
					break
				}
			}
			break
		}
		if src.pos < 0 {
			return nil, fmt.Errorf("dbtoaster: signature slot (rel %d, id %d) of view %b unreachable from rel %d",
				s.rel, s.id, mask, rel)
		}
		w.sig = append(w.sig, src)
	}
	return w, nil
}

// OnTuple feeds one tuple and returns the per-group aggregate increments of
// the full join result. It encodes t and runs OnRow; the returned deltas
// (groups included) are scratch, valid until the next OnTuple call.
func (a *AggJoin) OnTuple(rel int, t types.Tuple) ([]AggDelta, error) {
	if rel < 0 || rel >= a.g.NumRels {
		return nil, fmt.Errorf("dbtoaster: relation %d out of range", rel)
	}
	a.enc = wire.Encode(a.enc[:0], t)
	if err := a.encCur.Reset(a.enc); err != nil {
		return nil, err
	}
	a.deltas = a.deltas[:0]
	a.groups = a.groups[:0]
	if a.collect == nil {
		a.collect = a.collectDelta
	}
	if err := a.onRow(rel, &a.encCur, t, a.collect); err != nil {
		return nil, err
	}
	n := len(a.spec.GroupBy)
	for i := range a.deltas {
		a.deltas[i].Group = a.groups[i*n : (i+1)*n : (i+1)*n]
	}
	return a.deltas, nil
}

// collectDelta decodes one emitted partial row into the OnTuple scratch.
func (a *AggJoin) collectDelta(partial []byte) error {
	if err := a.dcur.Reset(partial); err != nil {
		return err
	}
	n := a.dcur.Arity() - 2
	for i := 0; i < n; i++ {
		a.groups = append(a.groups, a.dcur.Value(i))
	}
	cnt, _ := a.dcur.Int(n)
	sum, _ := a.dcur.Float(n + 1)
	a.deltas = append(a.deltas, AggDelta{Cnt: cnt, Sum: sum})
	return nil
}

// OnRow feeds one wire-encoded arrival of relation rel, viewed through cur.
// emit, when non-nil, receives every increment of the full join result as
// an encoded partial row (group..., cnt INT, sum FLOAT), valid only during
// the callback.
func (a *AggJoin) OnRow(rel int, cur *wire.Cursor, emit func(partial []byte) error) error {
	if rel < 0 || rel >= a.g.NumRels {
		return fmt.Errorf("dbtoaster: relation %d out of range", rel)
	}
	return a.onRow(rel, cur, nil, emit)
}

// onRow is OnRow with the arrival's decoded tuple when the caller has it
// (nil: decoded on demand for non-column operands).
func (a *AggJoin) onRow(rel int, cur *wire.Cursor, t types.Tuple, emit func([]byte) error) error {
	p := &a.plans[rel]
	if t == nil && (p.needTuple || p.maxCol >= cur.Arity()) {
		a.tup = cur.Tuple(a.tup)
		t = a.tup
	}
	if err := a.loadOperands(p, cur, t); err != nil {
		return err
	}
	tSum, err := a.arrivalSum(p, cur, t)
	if err != nil {
		return err
	}
	// Every read hits a component view, which never contains rel, and every
	// write hits a target view, which always does: merging each delta as
	// soon as it is built cannot feed back into this arrival's probes.
	for _, w := range p.wires {
		if err := a.propagate(w, tSum, emit); err != nil {
			return err
		}
	}
	return nil
}

// loadOperands encodes every operand of the arrival into opBuf. Operands
// and the SUM argument are read before any view changes, so an arrival
// rejected for bad input leaves the views untouched.
func (a *AggJoin) loadOperands(p *relPlan, cur *wire.Cursor, t types.Tuple) error {
	a.opBuf = a.opBuf[:0]
	a.opEnd = a.opEnd[:0]
	for i := range p.ops {
		o := &p.ops[i]
		if o.col >= 0 && o.col < cur.Arity() {
			if o.canon {
				a.opBuf = appendJoinField(a.opBuf, cur.FieldBytes(o.col))
			} else {
				a.opBuf = append(a.opBuf, cur.FieldBytes(o.col)...)
			}
		} else {
			v, err := o.e.Eval(t)
			if err != nil {
				return fmt.Errorf("dbtoaster: %s: %w", o.e, err)
			}
			if o.canon && v.Kind() == types.KindFloat && integral(v.F) {
				v = types.Int(int64(v.F))
			}
			a.one[0] = v
			a.opBuf = wire.EncodeValues(a.opBuf, a.one[:])
		}
		a.opEnd = append(a.opEnd, int32(len(a.opBuf)))
	}
	return nil
}

// arrivalSum reads the SUM argument off the arrival when its relation
// carries it (AsFloat coercion; NULL sums as 0).
func (a *AggJoin) arrivalSum(p *relPlan, cur *wire.Cursor, t types.Tuple) (float64, error) {
	if !p.sumHere {
		return 0, nil
	}
	if c := p.sumCol; c >= 0 && c < cur.Arity() {
		f, ok := cur.FieldFloat(c)
		if !ok && cur.Kind(c) != types.KindNull {
			return 0, fmt.Errorf("dbtoaster: sum expr %s yields non-numeric %v", a.spec.Sum.E, cur.Value(c))
		}
		return f, nil
	}
	v, err := a.spec.Sum.E.Eval(t)
	if err != nil {
		return 0, fmt.Errorf("dbtoaster: sum expr: %w", err)
	}
	f, ok := v.AsFloat()
	if !ok && !v.IsNull() {
		return 0, fmt.Errorf("dbtoaster: sum expr %s yields non-numeric %v", a.spec.Sum.E, v)
	}
	return f, nil
}

// operandBytes returns the encoded operands [lo, hi) of the arrival.
func (a *AggJoin) operandBytes(lo, hi int) []byte {
	start := int32(0)
	if lo > 0 {
		start = a.opEnd[lo-1]
	}
	return a.opBuf[start:a.opEnd[hi-1]]
}

// propagate computes the deltas of one target view for the loaded arrival
// and merges each into the view: probe every component by its key, then
// walk the cross product of the matching entry lists (usually one list).
func (a *AggJoin) propagate(w *wiring, tSum float64, emit func([]byte) error) error {
	nc := len(w.comps)
	heads, combo := a.heads[:nc], a.combo[:nc]
	for j := range w.comps {
		c := &w.comps[j]
		k := c.probe.keys.Find(a.operandBytes(c.keyLo, c.keyHi))
		if k < 0 {
			return nil
		}
		heads[j] = c.probe.head[k]
		combo[j] = heads[j]
	}
	for changed := 0; changed >= 0; {
		for j := changed; j < nc; j++ {
			if c := &w.comps[j]; c.fields {
				if err := a.ccur[j].Reset(c.v.sigs.Key(int(combo[j]))); err != nil {
					return err
				}
			}
		}
		cnt := int64(1)
		for j := range w.comps {
			cnt *= w.comps[j].v.acc[combo[j]].cnt
		}
		sum := 0.0
		switch {
		case w.sumT:
			sum = tSum * float64(cnt)
		case w.sumComp >= 0:
			sum = w.comps[w.sumComp].v.acc[combo[w.sumComp]].sum
			for j := range w.comps {
				if j != w.sumComp {
					sum *= float64(w.comps[j].v.acc[combo[j]].cnt)
				}
			}
		}
		a.sig = binary.AppendUvarint(a.sig[:0], uint64(len(w.sig)))
		for _, s := range w.sig {
			if s.comp < 0 {
				a.sig = append(a.sig, a.operandBytes(s.pos, s.pos+1)...)
			} else {
				a.sig = append(a.sig, a.ccur[s.comp].FieldBytes(s.pos)...)
			}
		}
		a.merge(w.target, cnt, sum)
		if emit != nil && w.target == a.result {
			a.part = appendPartial(a.part[:0], a.sig, cnt, sum)
			if err := emit(a.part); err != nil {
				return err
			}
		}
		// Advance the odometer; components from `changed` on moved.
		for changed = nc - 1; changed >= 0; changed-- {
			combo[changed] = w.comps[changed].probe.next[combo[changed]]
			if combo[changed] >= 0 {
				break
			}
			combo[changed] = heads[changed]
		}
	}
	return nil
}

// merge folds the delta whose signature sits in a.sig into view v,
// registering a new signature in the view's probe indexes.
func (a *AggJoin) merge(v *aview, cnt int64, sum float64) {
	e, added := v.sigs.Intern(a.sig)
	if added {
		v.acc = append(v.acc, aggAcc{})
		if len(v.probes) > 0 {
			if err := a.icur.Reset(a.sig); err != nil {
				panic(fmt.Sprintf("dbtoaster: spliced signature is malformed: %v", err))
			}
			for i := range v.probes {
				p := &v.probes[i]
				a.key = a.key[:0]
				for _, si := range p.slots {
					a.key = append(a.key, a.icur.FieldBytes(si)...)
				}
				k, newKey := p.keys.Intern(a.key)
				if newKey {
					p.head = append(p.head, -1)
				}
				p.next = append(p.next, p.head[k])
				p.head[k] = int32(e)
			}
		}
	}
	v.acc[e].cnt += cnt
	v.acc[e].sum += sum
}

// appendPartial appends the partial result row (group..., cnt, sum) of a
// full-view signature row to dst: the signature's fields are exactly the
// group-by values.
func appendPartial(dst, sig []byte, cnt int64, sum float64) []byte {
	n, hl := binary.Uvarint(sig)
	dst = binary.AppendUvarint(dst, n+2)
	dst = append(dst, sig[hl:]...)
	dst = append(dst, byte(types.KindInt))
	dst = binary.AppendVarint(dst, cnt)
	dst = append(dst, byte(types.KindFloat))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(sum))
}

// integral reports whether f is a whole number representable as an int64 —
// the floats Value.Equal identifies with an INT.
func integral(f float64) bool {
	return f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64
}

// appendJoinField appends one encoded join-key field in canonical form:
// an integral FLOAT is rewritten as the INT of the same number, so keys
// that Value.Equal identifies (Int(2), Float(2.0)) have identical bytes.
// Group-by slots are not canonicalized: a group's identity is its exact
// encoding, as in the merge bolt.
func appendJoinField(dst, field []byte) []byte {
	if len(field) == 9 && types.Kind(field[0]) == types.KindFloat {
		if f := math.Float64frombits(binary.LittleEndian.Uint64(field[1:])); integral(f) {
			dst = append(dst, byte(types.KindInt))
			return binary.AppendVarint(dst, int64(f))
		}
	}
	return append(dst, field...)
}

// EachResult emits the current full-join aggregates, one encoded partial
// row (group..., cnt, sum) per group, each valid only during the callback.
func (a *AggJoin) EachResult(emit func(partial []byte) error) error {
	for e := range a.result.acc {
		acc := a.result.acc[e]
		a.part = appendPartial(a.part[:0], a.result.sigs.Key(e), acc.cnt, acc.sum)
		if err := emit(a.part); err != nil {
			return err
		}
	}
	return nil
}

// Result returns the current full-join aggregates, one per group, in
// unspecified order.
func (a *AggJoin) Result() []AggDelta {
	out := make([]AggDelta, 0, len(a.result.acc))
	for e, acc := range a.result.acc {
		out = append(out, AggDelta{Group: a.result.sigs.Decode(nil, e), Cnt: acc.cnt, Sum: acc.sum})
	}
	return out
}

// MemSize reports the real footprint of the view state: key tables, slot
// arrays and probe lists at their allocated capacities.
func (a *AggJoin) MemSize() int {
	n := 0
	for _, v := range a.views {
		if v == nil {
			continue
		}
		n += v.sigs.MemSize() + 16*cap(v.acc) + 64
		for i := range v.probes {
			p := &v.probes[i]
			n += p.keys.MemSize() + 4*(cap(p.head)+cap(p.next))
		}
	}
	return n
}
