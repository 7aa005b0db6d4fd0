package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"squall/internal/types"
)

// Property tests cross-checking the AVL tree against a sorted-slice oracle
// (mirroring internal/ewh/property_test.go): random insert/delete traces,
// then range lookups, subtree counts and balance are compared against brute
// force over the oracle.

// oracleEntry is one (key, ref) item of the reference model.
type oracleEntry struct {
	key types.Value
	ref uint32
}

type treeOracle []oracleEntry

func (o treeOracle) inRange(k types.Value, lo, hi Bound) bool {
	return !lo.belowLo(k) && !hi.aboveHi(k)
}

func randKey(rng *rand.Rand, domain int64) types.Value {
	switch rng.Intn(3) {
	case 0:
		return types.Int(rng.Int63n(domain))
	case 1:
		// Integral floats: must land on the same key as their int twins.
		return types.Float(float64(rng.Int63n(domain)))
	default:
		return types.Float(float64(rng.Int63n(domain)) + 0.5)
	}
}

func randBoundPair(rng *rand.Rand, domain int64) (Bound, Bound) {
	mk := func() Bound {
		switch rng.Intn(3) {
		case 0:
			return Unbounded()
		case 1:
			return Incl(types.Int(rng.Int63n(domain)))
		default:
			return Excl(types.Float(float64(rng.Int63n(domain)) + 0.5))
		}
	}
	return mk(), mk()
}

// runTrace drives ops random inserts/deletes on both structures.
func runTrace(t *testing.T, rng *rand.Rand, tr *Tree, oracle treeOracle, ops int, domain int64) treeOracle {
	t.Helper()
	seq := uint32(0)
	for op := 0; op < ops; op++ {
		if rng.Intn(3) != 0 || len(oracle) == 0 {
			k := randKey(rng, domain)
			seq++
			tr.Insert(k, seq)
			oracle = append(oracle, oracleEntry{key: k, ref: seq})
		} else {
			vi := rng.Intn(len(oracle))
			victim := oracle[vi]
			if !tr.Delete(victim.key, victim.ref) {
				t.Fatalf("op %d: oracle holds ref %d under %v, tree delete failed", op, victim.ref, victim.key)
			}
			oracle = append(oracle[:vi], oracle[vi+1:]...)
		}
	}
	return oracle
}

// TestTreePropertyRangeVsOracle: Range enumerates exactly the oracle's
// entries within the bounds, in non-decreasing key order.
func TestTreePropertyRangeVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		tr := NewTree()
		oracle := runTrace(t, rng, tr, nil, 300+rng.Intn(400), int64(5+rng.Intn(60)))
		if int(tr.Len()) != len(oracle) {
			t.Fatalf("trial %d: tree Len %d, oracle %d", trial, tr.Len(), len(oracle))
		}
		for probe := 0; probe < 20; probe++ {
			lo, hi := randBoundPair(rng, 70)
			var want []oracleEntry
			for _, e := range oracle {
				if oracle.inRange(e.key, lo, hi) {
					want = append(want, e)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].key.Compare(want[j].key) < 0 })
			var got []uint32
			var prev types.Value
			first := true
			tr.Range(lo, hi, func(k types.Value, ref uint32) bool {
				if !first && prev.Compare(k) > 0 {
					t.Fatalf("trial %d: Range visited keys out of order (%v after %v)", trial, k, prev)
				}
				prev, first = k, false
				got = append(got, ref)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d probe %d: Range returned %d items, oracle %d", trial, probe, len(got), len(want))
			}
			// Bag equality on the unique refs (items under one key are
			// unordered relative to the oracle).
			seqs := map[uint32]int{}
			for _, ref := range got {
				seqs[ref]++
			}
			for _, e := range want {
				seqs[e.ref]--
			}
			for s, n := range seqs {
				if n != 0 {
					t.Fatalf("trial %d probe %d: seq %d count off by %d", trial, probe, s, n)
				}
			}
		}
	}
}

// TestTreePropertyDeleteRebalance: delete-heavy traces (forcing node
// removals with successor replacement) keep the tree consistent, balanced
// within the AVL height bound, and its memory accounting reversible.
func TestTreePropertyDeleteRebalance(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		tr := NewTree()
		base := tr.MemSize()
		oracle := runTrace(t, rng, tr, nil, 400, int64(3+rng.Intn(20)))
		// Drain in random order: every node-removal path (leaf, one child,
		// two children with successor swap) gets exercised.
		for len(oracle) > 0 {
			vi := rng.Intn(len(oracle))
			victim := oracle[vi]
			if !tr.Delete(victim.key, victim.ref) {
				t.Fatalf("trial %d: delete of present item failed", trial)
			}
			oracle = append(oracle[:vi], oracle[vi+1:]...)
			if int(tr.Len()) != len(oracle) {
				t.Fatalf("trial %d: Len %d after delete, oracle %d", trial, tr.Len(), len(oracle))
			}
			if n := tr.Len(); n > 0 {
				// AVL height bound: h <= 1.4405 log2(n+2).
				if h := float64(tr.Height()); h > 1.4405*math.Log2(float64(n)+2)+1 {
					t.Fatalf("trial %d: height %.0f exceeds AVL bound for %d items", trial, h, n)
				}
			}
			// Subtree counts must stay consistent under deletion.
			var c int64
			tr.Range(Unbounded(), Unbounded(), func(types.Value, uint32) bool { c++; return true })
			if c != tr.Len() {
				t.Fatalf("trial %d: full-range count %d vs Len %d", trial, c, tr.Len())
			}
		}
		if tr.Height() != 0 {
			t.Fatalf("trial %d: drained tree has height %d", trial, tr.Height())
		}
		if tr.MemSize() != base {
			t.Fatalf("trial %d: MemSize %d after drain, want %d", trial, tr.MemSize(), base)
		}
		if tr.Delete(types.Int(0), 0) {
			t.Fatalf("trial %d: delete on empty tree succeeded", trial)
		}
	}
}
