package dbtoaster

import (
	"math/rand"
	"testing"

	"squall/internal/expr"
	"squall/internal/types"
	"squall/internal/wire"
)

// TestTupleJoinOnRowAgreesWithOnTuple is the packed differential for the
// view-materializing operator: identical streams through OnTuple and OnRow
// must produce bag-identical delta rows and interchangeable view states.
func TestTupleJoinOnRowAgreesWithOnTuple(t *testing.T) {
	cases := []struct {
		name  string
		rels  int
		theta bool
	}{
		{"2way-equi", 2, false},
		{"3way-chain", 3, false},
		{"3way-theta", 3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var conj []expr.JoinConjunct
			for rel := 0; rel+1 < c.rels; rel++ {
				conj = append(conj, expr.EquiCol(rel, 0, rel+1, 0))
			}
			if c.theta {
				conj = append(conj, expr.ThetaCol(0, 1, expr.Lt, 1, 1))
			}
			g := expr.MustJoinGraph(c.rels, conj...)
			boxed := NewTupleJoin(g)
			packed := NewTupleJoin(g)
			if !packed.PackedCapable() {
				t.Fatal("compact TupleJoin must be packed-capable")
			}

			rng := rand.New(rand.NewSource(31))
			var cur wire.Cursor
			var row []byte
			for i := 0; i < 400; i++ {
				rel := rng.Intn(c.rels)
				tu := types.Tuple{
					types.Int(int64(rng.Intn(8))),
					types.Int(int64(rng.Intn(40))),
					types.Int(int64(rel*1_000_000 + i)),
				}
				wantBag := map[string]int{}
				deltas, err := boxed.OnTuple(rel, tu)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range deltas {
					wantBag[d.Concat().Key()]++
				}
				row = wire.Encode(row[:0], tu)
				if err := cur.Reset(row); err != nil {
					t.Fatal(err)
				}
				gotBag := map[string]int{}
				err = packed.OnRow(rel, row, &cur, func(out []byte) error {
					got, _, err := wire.Decode(out)
					if err != nil {
						return err
					}
					gotBag[got.Key()]++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(gotBag) != len(wantBag) {
					t.Fatalf("arrival %d: packed %v, boxed %v", i, gotBag, wantBag)
				}
				for k, n := range wantBag {
					if gotBag[k] != n {
						t.Fatalf("arrival %d: delta %q packed %d, boxed %d", i, k, gotBag[k], n)
					}
				}
			}
			wantSizes := boxed.ViewSizes()
			for mask, n := range packed.ViewSizes() {
				if wantSizes[mask] != n {
					t.Fatalf("view %b: packed %d combos, boxed %d", mask, n, wantSizes[mask])
				}
			}
		})
	}
}

// TestTupleJoinMixedKindKeysMatchNestedLoop: the view indexes treat Int(2)
// and Float(2.0) as the same key under hash probes (equi) and tree probes
// (Le band), on OnTuple and OnRow alike, in either arrival order, matching
// the nested loop.
func TestTupleJoinMixedKindKeysMatchNestedLoop(t *testing.T) {
	rels := [][]types.Tuple{
		{{types.Int(2), types.Str("r2")}, {types.Int(3), types.Str("r3")}, {types.Float(2.5), types.Str("r2.5")}},
		{{types.Float(2.0), types.Str("s2.0")}, {types.Int(3), types.Str("s3")}, {types.Float(3.0), types.Str("s3.0")},
			{types.Float(2.5), types.Str("s2.5")}, {types.Int(1), types.Str("s1")}},
	}
	for _, op := range []expr.CmpOp{expr.Eq, expr.Le} {
		g := expr.MustJoinGraph(2, expr.ThetaCol(0, 0, op, 1, 0))
		var want []types.Tuple
		for _, r := range rels[0] {
			for _, s := range rels[1] {
				if ok, err := g.Conjuncts[0].Holds([]types.Tuple{r, s}); err != nil {
					t.Fatal(err)
				} else if ok {
					want = append(want, types.Tuple{r[0], r[1], s[0], s[1]})
				}
			}
		}
		for _, packed := range []bool{false, true} {
			for _, order := range [][]int{{0, 1}, {1, 0}} {
				j := NewTupleJoin(g)
				var got []types.Tuple
				var cur wire.Cursor
				for _, rel := range order {
					for _, tu := range rels[rel] {
						if !packed {
							deltas, err := j.OnTuple(rel, tu)
							if err != nil {
								t.Fatal(err)
							}
							got = append(got, concatAll(deltas)...)
							continue
						}
						row := wire.Encode(nil, tu)
						if err := cur.Reset(row); err != nil {
							t.Fatal(err)
						}
						err := j.OnRow(rel, row, &cur, func(out []byte) error {
							d, _, err := wire.Decode(out)
							got = append(got, d)
							return err
						})
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				sameTuples(t, "mixed-kind join", got, append([]types.Tuple(nil), want...))
			}
		}
		found := false
		for _, w := range want {
			found = found || (w[1].Str == "r2" && w[3].Str == "s2.0")
		}
		if !found {
			t.Fatalf("op %v: oracle lacks the Int(2)/Float(2.0) pair", op)
		}
	}
}
