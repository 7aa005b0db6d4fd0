package dbtoaster

import (
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/types"
	"squall/internal/wire"
)

// mixedKey returns k as an INT or as the equal FLOAT, at random.
func mixedKey(r *rand.Rand, k int64) types.Value {
	if r.Intn(2) == 0 {
		return types.Float(float64(k))
	}
	return types.Int(k)
}

// runAgainstTraditional feeds stream through AggJoin and the traditional
// join, checking every arrival's deltas and the final result against the
// traditional join aggregated by group.
func runAgainstTraditional(t *testing.T, g *expr.JoinGraph, spec AggSpec, stream []ev) *AggJoin {
	t.Helper()
	trad := localjoin.NewTraditional(g)
	agg, err := NewAggJoin(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := newAggReference()
	for _, e := range stream {
		dt, err := trad.OnTuple(e.rel, e.t)
		if err != nil {
			t.Fatal(err)
		}
		deltaRef := newAggReference()
		for _, d := range dt {
			ref.add(t, d, spec.GroupBy, spec.Sum)
			deltaRef.add(t, d, spec.GroupBy, spec.Sum)
		}
		da, err := agg.OnTuple(e.rel, e.t)
		if err != nil {
			t.Fatal(err)
		}
		checkAggEqual(t, deltaRef, da)
	}
	checkAggEqual(t, ref, agg.Result())
	return agg
}

// TestAggJoinMixedKindJoinKeys: join keys that Value.Equal identifies —
// Int(2) and Float(2.0) — must match in the aggregate views exactly as in
// the traditional join, while group-by values stay byte-exact (Int(2) and
// Float(2.0) are two groups, as in the merge bolt).
func TestAggJoinMixedKindJoinKeys(t *testing.T) {
	t.Run("pair", func(t *testing.T) {
		g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
		stream := []ev{
			{0, types.Tuple{types.Int(2)}},
			{1, types.Tuple{types.Float(2.0)}},
			{1, types.Tuple{types.Float(2.5)}},
			{0, types.Tuple{types.Float(2.5)}},
			{0, types.Tuple{types.Int(3)}},
			{1, types.Tuple{types.Float(3.5)}},
		}
		agg := runAgainstTraditional(t, g, AggSpec{Kind: AggCount}, stream)
		if res := agg.Result(); len(res) != 1 || res[0].Cnt != 2 {
			t.Fatalf("COUNT = %v, want 2 (2 = 2.0 and 2.5 = 2.5)", res)
		}
	})
	t.Run("chain3", func(t *testing.T) {
		r := rand.New(rand.NewSource(23))
		rels := make([][]types.Tuple, 3)
		for rel := range rels {
			for i := 0; i < 40; i++ {
				rels[rel] = append(rels[rel], types.Tuple{
					mixedKey(r, r.Int63n(4)), mixedKey(r, r.Int63n(4)), types.Float(float64(r.Intn(100)) / 4),
				})
			}
		}
		spec := AggSpec{
			GroupBy: []ColRef{{Rel: 0, E: expr.C(0)}, {Rel: 2, E: expr.C(1)}},
			Kind:    AggSum,
			Sum:     &ColRef{Rel: 1, E: expr.C(2)},
		}
		runAgainstTraditional(t, chain3(), spec, shuffled(r, rels))
	})
	t.Run("evaluated", func(t *testing.T) {
		// R.c0 * 2 / 2 evaluates to a FLOAT: the non-column fallback must
		// canonicalize its key like a column read does.
		g := expr.MustJoinGraph(2, expr.JoinConjunct{
			LRel: 0, RRel: 1, Op: expr.Eq,
			Left:  expr.Arith{Op: expr.Div, L: expr.Arith{Op: expr.Mul, L: expr.C(0), R: expr.I(2)}, R: expr.I(2)},
			Right: expr.C(0),
		})
		r := rand.New(rand.NewSource(29))
		rels := [][]types.Tuple{genRel(r, 30, 2, 5), genRel(r, 30, 2, 5)}
		spec := AggSpec{GroupBy: []ColRef{{Rel: 1, E: expr.C(1)}}, Kind: AggCount}
		runAgainstTraditional(t, g, spec, shuffled(r, rels))
	})
}

// TestAggJoinNoAllocSteadyState pins the row path at zero heap objects per
// arrival once every signature exists: operands, probe keys, signatures
// and emitted partials are all built in reused scratch.
func TestAggJoinNoAllocSteadyState(t *testing.T) {
	g := chain3()
	spec := AggSpec{
		GroupBy: []ColRef{{Rel: 0, E: expr.C(0)}, {Rel: 2, E: expr.C(1)}},
		Kind:    AggSum,
		Sum:     &ColRef{Rel: 1, E: expr.C(1)},
	}
	agg, err := NewAggJoin(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	stream := shuffled(r, [][]types.Tuple{genRel(r, 30, 2, 4), genRel(r, 30, 2, 4), genRel(r, 30, 2, 4)})
	rows := make([][]byte, len(stream))
	for i, e := range stream {
		rows[i] = wire.Encode(nil, e.t)
	}
	var cur wire.Cursor
	partials := 0
	emit := func([]byte) error { partials++; return nil }
	feed := func() {
		for i, e := range stream {
			if err := cur.Reset(rows[i]); err != nil {
				t.Fatal(err)
			}
			if err := agg.OnRow(e.rel, &cur, emit); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed() // every signature now exists; scratch is warm
	if partials == 0 {
		t.Fatal("workload produced no result deltas")
	}
	if allocs := testing.AllocsPerRun(20, feed); allocs != 0 {
		t.Errorf("OnRow allocates %.1f objects per pass of %d arrivals, want 0", allocs, len(stream))
	}
}
