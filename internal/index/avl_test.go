package index

import (
	"math/rand"
	"sort"
	"testing"

	"squall/internal/types"
)

func TestTreeInsertAndOrderedRange(t *testing.T) {
	tr := NewTree()
	for _, v := range []int64{5, 1, 9, 3, 7, 3} {
		tr.Insert(types.Int(v), uint32(v))
	}
	var got []int64
	tr.Range(Unbounded(), Unbounded(), func(k types.Value, _ uint32) bool {
		got = append(got, k.I)
		return true
	})
	want := []int64{1, 3, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("range visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range order %v, want %v", got, want)
		}
	}
	if tr.Len() != 6 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestTreeRangeBounds(t *testing.T) {
	tr := NewTree()
	for v := int64(1); v <= 10; v++ {
		tr.Insert(types.Int(v), uint32(v))
	}
	cases := []struct {
		lo, hi Bound
		want   int64
	}{
		{Incl(types.Int(3)), Incl(types.Int(7)), 5},
		{Excl(types.Int(3)), Incl(types.Int(7)), 4},
		{Incl(types.Int(3)), Excl(types.Int(7)), 4},
		{Excl(types.Int(3)), Excl(types.Int(7)), 3},
		{Unbounded(), Incl(types.Int(4)), 4},
		{Incl(types.Int(8)), Unbounded(), 3},
		{Unbounded(), Unbounded(), 10},
		{Incl(types.Int(11)), Unbounded(), 0},
		{Incl(types.Int(5)), Incl(types.Int(4)), 0},
	}
	for _, c := range cases {
		var visited int64
		tr.Range(c.lo, c.hi, func(types.Value, uint32) bool { visited++; return true })
		if visited != c.want {
			t.Errorf("Range(%v,%v) visited %d, want %d", c.lo, c.hi, visited, c.want)
		}
	}
}

func TestTreeDelete(t *testing.T) {
	tr := NewTree()
	for v := uint32(0); v < 20; v++ {
		tr.Insert(types.Int(int64(v%5)), v)
	}
	if !tr.Delete(types.Int(3), 3) {
		t.Fatal("delete of present item must succeed")
	}
	if tr.Delete(types.Int(3), 3) {
		t.Fatal("double delete must fail")
	}
	if tr.Delete(types.Int(4), 3) {
		t.Fatal("delete under wrong key must fail")
	}
	if tr.Len() != 19 {
		t.Errorf("Len = %d", tr.Len())
	}
	var visited int64
	tr.Range(Unbounded(), Unbounded(), func(_ types.Value, ref uint32) bool {
		if ref == 3 {
			t.Error("deleted ref still visited")
		}
		visited++
		return true
	})
	if visited != 19 {
		t.Errorf("full range visited %d", visited)
	}
}

func TestTreeBalancedHeight(t *testing.T) {
	tr := NewTree()
	const n = 1 << 12
	for v := int64(0); v < n; v++ { // sorted insertion is the adversarial case
		tr.Insert(types.Int(v), uint32(v))
	}
	// AVL height bound: 1.44*log2(n+2). For n=4096 that is ~17.4.
	if h := tr.Height(); h > 18 {
		t.Errorf("height %d exceeds AVL bound for %d keys", h, n)
	}
}

func TestTreeAgainstReferenceModel(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	tr := NewTree()
	type entry struct {
		k   int64
		ref uint32
	}
	var ref []entry
	for op := 0; op < 4000; op++ {
		if r.Intn(3) != 0 || len(ref) == 0 {
			k := r.Int63n(60)
			tr.Insert(types.Int(k), uint32(op))
			ref = append(ref, entry{k, uint32(op)})
		} else {
			i := r.Intn(len(ref))
			if !tr.Delete(types.Int(ref[i].k), ref[i].ref) {
				t.Fatal("model holds item the tree lacks")
			}
			ref = append(ref[:i], ref[i+1:]...)
		}
		if op%97 == 0 {
			lo, hi := r.Int63n(60), r.Int63n(60)
			if lo > hi {
				lo, hi = hi, lo
			}
			var wantC, gotC int64
			for _, e := range ref {
				if e.k >= lo && e.k <= hi {
					wantC++
				}
			}
			tr.Range(Incl(types.Int(lo)), Incl(types.Int(hi)), func(types.Value, uint32) bool { gotC++; return true })
			if gotC != wantC {
				t.Fatalf("op %d: Range[%d,%d] visited %d, want %d", op, lo, hi, gotC, wantC)
			}
		}
	}
	if tr.Len() != int64(len(ref)) {
		t.Errorf("Len = %d, model %d", tr.Len(), len(ref))
	}
	// Final full-order check.
	keys := make([]int64, 0, len(ref))
	for _, e := range ref {
		keys = append(keys, e.k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var got []int64
	tr.Range(Unbounded(), Unbounded(), func(k types.Value, _ uint32) bool {
		got = append(got, k.I)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("in-order visit count %d, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("in-order mismatch at %d: %d vs %d", i, got[i], keys[i])
		}
	}
}

func TestTreeEarlyStop(t *testing.T) {
	tr := NewTree()
	for v := int64(0); v < 100; v++ {
		tr.Insert(types.Int(v), uint32(v))
	}
	n := 0
	tr.Range(Unbounded(), Unbounded(), func(types.Value, uint32) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestTreeMemSize(t *testing.T) {
	tr := NewTree()
	base := tr.MemSize()
	tr.Insert(types.Str("payload"), 7)
	if tr.MemSize() <= base {
		t.Error("MemSize must grow")
	}
	tr.Delete(types.Str("payload"), 7)
	if tr.MemSize() != base {
		t.Error("MemSize must shrink back after delete")
	}
}
