package slab

import (
	"bytes"
	"testing"

	"squall/internal/types"
	"squall/internal/wire"
)

// TestKeyTable: keys get dense slots in first-appearance order, equal
// bytes share a slot, and stored keys read back exactly.
func TestKeyTable(t *testing.T) {
	var kt KeyTable // the zero value is ready
	if kt.Find([]byte("a")) != -1 || kt.Len() != 0 {
		t.Fatal("empty table must hold nothing")
	}
	keys := [][]byte{
		wire.Encode(nil, types.Tuple{types.Int(2)}),
		wire.Encode(nil, types.Tuple{types.Float(2)}), // equal value, different bytes
		wire.Encode(nil, types.Tuple{types.Str("x"), types.Int(-1)}),
	}
	for i, k := range keys {
		slot, added := kt.Intern(k)
		if slot != i || !added {
			t.Fatalf("key %d: slot %d added %v, want %d true", i, slot, added, i)
		}
	}
	for i, k := range keys {
		if slot, added := kt.Intern(append([]byte(nil), k...)); slot != i || added {
			t.Fatalf("re-intern key %d: slot %d added %v", i, slot, added)
		}
		if kt.Find(k) != i || !bytes.Equal(kt.Key(i), k) {
			t.Fatalf("key %d does not read back", i)
		}
	}
	if got := kt.Decode(nil, 2); !got.Equal(types.Tuple{types.Str("x"), types.Int(-1)}) {
		t.Fatalf("Decode = %v", got)
	}
	if kt.Len() != 3 || kt.MemSize() <= 0 {
		t.Fatalf("Len %d MemSize %d", kt.Len(), kt.MemSize())
	}
}
