// Packed execution (PR 5): the traditional local join consuming
// wire-encoded arrivals directly. The arriving row is blitted into the
// relation's slab arena (no wire.Encode round trip), index keys hash off
// the encoded field bytes, probe candidates are verified by field-view
// comparison instead of decode-then-Eval, and delta results are emitted as
// spliced encoded rows — the inner loop of a join task touches no
// []types.Value from wire to slab to wire.
package localjoin

import (
	"encoding/binary"
	"fmt"

	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/wire"
)

// PackedJoin is implemented by local joins that can consume one
// wire-encoded arrival without materializing it.
type PackedJoin interface {
	// PackedCapable reports whether OnRow is usable for this operator's
	// graph; when false the caller must stay on OnTuple.
	PackedCapable() bool
	// OnRow is the packed OnTuple: it joins the encoded arrival against
	// stored state, passes each delta result to emit as one encoded row
	// (valid only during the callback), then stores the arrival.
	OnRow(rel int, row []byte, cur *wire.Cursor, emit func(row []byte) error) error
}

var _ PackedJoin = (*Traditional)(nil)

// PackedCapable reports the packed fast path applies: every conjunct side
// expression is a plain column ref (offset reads). Anything else falls back
// to the boxed OnTuple.
func (j *Traditional) PackedCapable() bool { return j.packedOK }

// packedState is the reusable per-arrival scratch of the packed expansion.
type packedState struct {
	curs  []wire.Cursor   // per-relation cursor over the assigned row
	refs  [][]uint32      // per-relation range/scan candidate scratch
	cands [][]wire.Cursor // per-relation verified equality candidates, already parsed
	out   []byte          // spliced result row
	// incident/filters are per-relation conjunct-id scratch (a relation is
	// probed at most once per expand chain, so per-rel reuse is safe).
	incident [][]int
	filters  [][]int
}

// OnRow joins the encoded arrival against the stored relations and stores
// it — the packed mirror of OnTuple. The emitted rows are the
// relation-order concatenations OnTuple's Delta.Concat would produce,
// byte-identical to their wire encoding.
func (j *Traditional) OnRow(rel int, row []byte, cur *wire.Cursor, emit func(row []byte) error) error {
	if !j.PackedCapable() {
		return fmt.Errorf("localjoin: OnRow on a non-packed-capable operator")
	}
	if rel < 0 || rel >= j.g.NumRels {
		return fmt.Errorf("localjoin: relation %d out of range", rel)
	}
	ps := &j.packed
	if ps.curs == nil {
		ps.curs = make([]wire.Cursor, j.g.NumRels)
		ps.refs = make([][]uint32, j.g.NumRels)
		ps.cands = make([][]wire.Cursor, j.g.NumRels)
		ps.incident = make([][]int, j.g.NumRels)
		ps.filters = make([][]int, j.g.NumRels)
	}
	// Re-scan the row into the operator-owned cursor: a struct copy of the
	// caller's cursor would alias its offset slice, and a later Reset of
	// either would silently clobber the other's view.
	if err := ps.curs[rel].Reset(row); err != nil {
		return fmt.Errorf("localjoin: OnRow: %w", err)
	}
	if err := j.expandPacked(ps, 1<<uint(rel), emit); err != nil {
		return err
	}
	return j.insertRow(rel, row, &ps.curs[rel])
}

// fieldOf bound-checks a conjunct's column against a row's arity, mirroring
// expr.Col.Eval's range error.
func fieldOf(cur *wire.Cursor, col int) error {
	if col < 0 || col >= cur.Arity() {
		return fmt.Errorf("localjoin: column %d out of range for arity %d", col, cur.Arity())
	}
	return nil
}

// insertRow blits the arrival into the relation's arena and maintains its
// per-conjunct indexes off the encoded fields. The key hashes are
// types.Value hashes of the fields, so packed and boxed inserts (migration
// imports, recovery restores) share one index.
func (j *Traditional) insertRow(rel int, row []byte, cur *wire.Cursor) error {
	s := j.stores[rel]
	ref := s.arena.AppendEncoded(row)
	s.lastRef = ref
	for ci := range j.g.Conjuncts {
		if j.sideExpr[ci][rel] == nil {
			continue
		}
		col := j.sideCol[ci][rel]
		if err := fieldOf(cur, col); err != nil {
			return fmt.Errorf("localjoin: index key: %w", err)
		}
		if h, ok := s.eqRef[ci]; ok {
			h.Insert(cur.ValueHash(col), uint32(ref))
		}
		if tr, ok := s.rngIdx[ci]; ok {
			tr.Insert(cur.Value(col), uint32(ref))
		}
	}
	return nil
}

// expandPacked is expand over encoded rows: partial assignments are row
// cursors, probes verify candidates by field comparison, and completed
// assignments splice straight into the emit row.
func (j *Traditional) expandPacked(ps *packedState, have uint64, emit func([]byte) error) error {
	next := j.pickNext(have)
	if next < 0 {
		total := 0
		for r := range ps.curs {
			total += ps.curs[r].Arity()
		}
		out := binary.AppendUvarint(ps.out[:0], uint64(total))
		for r := range ps.curs {
			out = append(out, ps.curs[r].Payload()...)
		}
		ps.out = out
		return emit(out)
	}
	refs, cands, filters, err := j.probePacked(ps, have, next)
	if err != nil {
		return err
	}
	s := j.stores[next]
	cur := &ps.curs[next]
	for i := range len(refs) + len(cands) {
		if cands != nil {
			// Swap the parsed candidate in: each cursor keeps its own
			// offset slice, so nothing aliases and nothing is re-parsed.
			*cur, cands[i] = cands[i], *cur
		} else if err := cur.Reset(s.arena.RowBytes(slab.Ref(refs[i]))); err != nil {
			return fmt.Errorf("localjoin: corrupt stored row: %w", err)
		}
		ok := true
		for _, ci := range filters {
			holds, err := j.conjunctHoldsPacked(ps, ci)
			if err != nil {
				return err
			}
			if !holds {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := j.expandPacked(ps, have|1<<uint(next), emit); err != nil {
			return err
		}
	}
	return nil
}

// conjunctHoldsPacked evaluates one conjunct between two assigned rows
// under CmpOp.Apply semantics (NULL operands collapse to false).
func (j *Traditional) conjunctHoldsPacked(ps *packedState, ci int) (bool, error) {
	c := &j.g.Conjuncts[ci]
	lc, rc := j.sideCol[ci][c.LRel], j.sideCol[ci][c.RRel]
	lcur, rcur := &ps.curs[c.LRel], &ps.curs[c.RRel]
	if err := fieldOf(lcur, lc); err != nil {
		return false, err
	}
	if err := fieldOf(rcur, rc); err != nil {
		return false, err
	}
	cmp, anyNull := wire.CompareFields(lcur, lc, rcur, rc)
	if anyNull {
		return false, nil
	}
	return expr.CmpHolds(c.Op, cmp), nil
}

// probePacked mirrors probe: it returns the candidates of relation `next`
// passing the strongest incident conjunct, plus the conjunct ids left to
// check as filters. Equality candidates come back as cursors already parsed
// while they were verified by field comparison (so a hash collision can
// never fabricate a result); range and scan candidates come back as refs.
// A relation is probed at most once per expand chain, so the per-relation
// scratch stays intact while deeper levels run.
func (j *Traditional) probePacked(ps *packedState, have uint64, next int) ([]uint32, []wire.Cursor, []int, error) {
	s := j.stores[next]
	incident := ps.incident[next][:0]
	for ci, c := range j.g.Conjuncts {
		other := -1
		switch {
		case c.LRel == next:
			other = c.RRel
		case c.RRel == next:
			other = c.LRel
		default:
			continue
		}
		if have&(1<<uint(other)) != 0 {
			incident = append(incident, ci)
		}
	}
	ps.incident[next] = incident
	probeCi := -1
	for _, ci := range incident {
		if j.g.Conjuncts[ci].Op == expr.Eq {
			probeCi = ci
			break
		}
	}
	if probeCi < 0 {
		for _, ci := range incident {
			op := j.g.Conjuncts[ci].Op
			if op == expr.Lt || op == expr.Le || op == expr.Gt || op == expr.Ge {
				probeCi = ci
				break
			}
		}
	}
	filters := ps.filters[next][:0]
	for _, ci := range incident {
		if ci != probeCi {
			filters = append(filters, ci)
		}
	}
	ps.filters[next] = filters
	if probeCi < 0 {
		return j.scanRefs(ps, s, next), nil, filters, nil // cross join or Ne-only
	}
	// Orient so LRel == next: Left(t_next) op' Right(t_other).
	c := j.g.Conjuncts[probeCi].Oriented(next)
	ocur := &ps.curs[c.RRel]
	ocol := j.sideCol[probeCi][c.RRel]
	if err := fieldOf(ocur, ocol); err != nil {
		return nil, nil, nil, err
	}
	switch c.Op {
	case expr.Eq:
		ncol := j.sideCol[probeCi][next]
		// Hash probe + field-view verification: same 64-bit key hash the
		// boxed path indexes under, same Compare-equality it verifies with
		// (NULL keys compare equal to NULL keys, exactly like Value.Equal).
		s.refBuf = s.eqRef[probeCi].AppendRefs(s.refBuf[:0], ocur.ValueHash(ocol))
		cands, n := ps.cands[next], 0
		for _, ref := range s.refBuf {
			if n == len(cands) {
				cands = append(cands, wire.Cursor{})
			}
			cand := &cands[n]
			if err := cand.Reset(s.arena.RowBytes(slab.Ref(ref))); err != nil {
				return nil, nil, nil, fmt.Errorf("localjoin: corrupt stored row: %w", err)
			}
			if err := fieldOf(cand, ncol); err != nil {
				return nil, nil, nil, err
			}
			if cmp, _ := wire.CompareFields(cand, ncol, ocur, ocol); cmp == 0 {
				n++
			}
		}
		ps.cands[next] = cands
		return nil, cands[:n], filters, nil
	case expr.Lt: // key < v
		return j.treeRefs(ps, s, next, probeCi, ocur, ocol, indexUnbounded, boundExcl), nil, filters, nil
	case expr.Le:
		return j.treeRefs(ps, s, next, probeCi, ocur, ocol, indexUnbounded, boundIncl), nil, filters, nil
	case expr.Gt: // key > v
		return j.treeRefs(ps, s, next, probeCi, ocur, ocol, boundExcl, indexUnbounded), nil, filters, nil
	case expr.Ge:
		return j.treeRefs(ps, s, next, probeCi, ocur, ocol, boundIncl, indexUnbounded), nil, filters, nil
	default:
		return j.scanRefs(ps, s, next), nil, append(filters, probeCi), nil
	}
}

// Bound constructors matched to index.Bound's shape, so treeRefs can take
// either end open or closed.
func boundExcl(v types.Value) index.Bound { return index.Excl(v) }
func boundIncl(v types.Value) index.Bound { return index.Incl(v) }

func indexUnbounded(types.Value) index.Bound { return index.Unbounded() }

// treeRefs range-probes a tree index: the only place the packed path
// materializes a value (the probe bound; numeric fields do it without
// allocating).
func (j *Traditional) treeRefs(ps *packedState, s *store, next, ci int, ocur *wire.Cursor, ocol int,
	lo, hi func(types.Value) index.Bound) []uint32 {
	v := ocur.Value(ocol)
	out := ps.refs[next][:0]
	s.rngIdx[ci].Range(lo(v), hi(v), func(_ types.Value, ref uint32) bool {
		out = append(out, ref)
		return true
	})
	ps.refs[next] = out
	return out
}

// scanRefs returns every live row ref of a relation (cross joins).
func (j *Traditional) scanRefs(ps *packedState, s *store, next int) []uint32 {
	out := ps.refs[next][:0]
	s.arena.Each(func(r slab.Ref) bool {
		out = append(out, uint32(r))
		return true
	})
	ps.refs[next] = out
	return out
}
