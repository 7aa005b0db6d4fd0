package slab

import (
	"bytes"

	"squall/internal/index"
	"squall/internal/types"
)

// KeyTable interns byte keys into dense slots: each distinct key is stored
// once as a row of an arena, and its slot is that row's ref (0, 1, 2, ... in
// first-appearance order), so callers keep per-key state in plain slices
// indexed by slot. Lookups hash the key bytes (index.BytesHash), walk the
// matching postings of an open-addressing index.RefHash and verify each
// candidate by byte equality, so two keys share a slot iff their bytes are
// equal, and a steady-state lookup allocates nothing.
//
// Keys are opaque bytes. Callers that store wire-encoded rows (group keys,
// view signatures) can read them back with Decode. The zero value is ready:
// nothing is allocated before the first Intern. A KeyTable is owned by one
// task.
type KeyTable struct {
	arena Arena
	idx   *index.RefHash // nil until the first Intern
}

// Find returns the slot of key, or -1 when the table does not hold it.
func (t *KeyTable) Find(key []byte) int {
	return t.find(key, index.BytesHash(key))
}

func (t *KeyTable) find(key []byte, h uint64) int {
	slot := -1
	if t.idx != nil {
		t.idx.Each(h, func(ref uint32) bool {
			if bytes.Equal(t.arena.RowBytes(Ref(ref)), key) {
				slot = int(ref)
				return false
			}
			return true
		})
	}
	return slot
}

// Intern returns the slot of key, storing a copy of key under the next slot
// (Len before the call) on its first appearance; added reports that case.
func (t *KeyTable) Intern(key []byte) (slot int, added bool) {
	h := index.BytesHash(key)
	if s := t.find(key, h); s >= 0 {
		return s, false
	}
	if t.idx == nil {
		t.idx = index.NewRefHash()
	}
	slot = int(t.arena.AppendEncoded(key))
	t.idx.Insert(h, uint32(slot))
	return slot, true
}

// Key returns the stored bytes of one slot. The slice aliases the table and
// is valid until the next Intern.
func (t *KeyTable) Key(slot int) []byte { return t.arena.RowBytes(Ref(slot)) }

// Decode materializes a slot whose key is a wire-encoded row into buf
// (reused when capacity allows); see Arena.DecodeInto.
func (t *KeyTable) Decode(buf types.Tuple, slot int) types.Tuple {
	return t.arena.DecodeInto(buf, Ref(slot))
}

// Len returns the number of distinct keys (valid slots are [0, Len)).
func (t *KeyTable) Len() int { return t.arena.Rows() }

// MemSize reports the real footprint in bytes: the key arena and the index
// at their allocated capacities.
func (t *KeyTable) MemSize() int {
	n := t.arena.MemSize()
	if t.idx != nil {
		n += t.idx.MemSize()
	}
	return n
}
