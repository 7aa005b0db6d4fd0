// Package slab provides the compact state engine Squall's stateful operators
// store tuples in (§3.3 is explicit that operator state, not transport,
// bounds a main-memory engine at scale). An Arena keeps rows packed
// back-to-back in one byte slab using the wire tuple encoding — varint
// zigzag ints, 8-byte floats, length-prefixed strings inlined next to their
// row — addressed by 32-bit row refs. A million stored tuples are one slice
// of bytes plus one slice of offsets instead of millions of boxed
// []types.Value objects, so the GC scans O(1) pointers and MemSize reports
// the real footprint.
//
// Rows being byte-identical to the wire encoding is load-bearing: state
// migration (internal/dataflow/adapt.go) blits stored rows straight into
// batch frames without ever re-materializing []types.Value tuples.
package slab

import (
	"encoding/binary"
	"fmt"
	"math"

	"squall/internal/types"
	"squall/internal/wire"
)

// Ref addresses one row of an Arena. Refs are dense row ordinals (not byte
// offsets), so indexes store 4-byte postings and iteration order is arrival
// order.
type Ref uint32

// NoRef is the sentinel for "no row" (e.g. an absent relation in a view
// combo). It is not a valid Ref.
const NoRef Ref = math.MaxUint32

// Arena is an append-only packed row store with tombstone deletion. The zero
// value is not ready; use New. An Arena is owned by one task (not safe for
// concurrent use): Decode reuses internal scratch.
type Arena struct {
	buf       []byte   // wire-encoded rows, back to back (tiered: the hot region)
	offs      []uint32 // offs[i] = start of row i in buf; end = offs[i+1] or len(buf)
	dead      []uint64 // tombstone bitmap, 1 bit per row (always globally indexed)
	live      int      // rows not tombstoned
	deadBytes int      // bytes occupied by tombstoned rows (compaction signal)

	// t, when non-nil, runs the tiered state layer (tier.go): buf/offs hold
	// only the hot tail past the last seal and refs below the hot base
	// resolve through sealed segments. Nil keeps the legacy single-slab
	// behavior bit for bit.
	t *tier

	// Decode scratch: string payloads of the row being decoded and which
	// output values they become, so one string conversion backs every string
	// value of a row (k string columns cost 1 allocation, not k).
	strbuf []byte
	spans  []valSpan
}

// valSpan marks out[val] as the string strbuf[off:end].
type valSpan struct {
	val, off, end int
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// checkCapacity guards the 32-bit addressing: offsets and refs silently
// wrapping at 4 GiB / 2^32 rows would corrupt state, so a task whose single
// arena outgrows them fails loudly instead (shard the operator wider).
func (a *Arena) checkCapacity() {
	if uint64(len(a.buf)) > math.MaxUint32 {
		panic("slab: arena exceeds 4 GiB; 32-bit row offsets would wrap")
	}
	if Ref(a.Rows()) >= NoRef {
		panic("slab: arena exceeds 2^32-1 rows; refs would wrap")
	}
}

// Append stores t as a packed row and returns its ref.
func (a *Arena) Append(t types.Tuple) Ref {
	a.checkCapacity()
	ref := Ref(a.Rows())
	a.offs = append(a.offs, uint32(len(a.buf)))
	a.buf = wire.Encode(a.buf, t)
	a.live++
	if a.t != nil {
		a.t.afterAppend(a)
	}
	return ref
}

// AppendEncoded stores an already wire-encoded row (as produced by
// wire.Encode) and returns its ref. The bytes are copied.
func (a *Arena) AppendEncoded(row []byte) Ref {
	a.checkCapacity()
	ref := Ref(a.Rows())
	a.offs = append(a.offs, uint32(len(a.buf)))
	a.buf = append(a.buf, row...)
	a.live++
	if a.t != nil {
		a.t.afterAppend(a)
	}
	return ref
}

// Rows returns the total rows ever appended, including tombstoned ones.
// Valid refs are [0, Rows).
func (a *Arena) Rows() int {
	if a.t != nil {
		return a.t.hotBase() + len(a.offs)
	}
	return len(a.offs)
}

// Len returns the number of live (non-tombstoned) rows.
func (a *Arena) Len() int { return a.live }

// rowSpan returns the [start, end) byte range of a row.
func (a *Arena) rowSpan(r Ref) (int, int) {
	if int(r) >= len(a.offs) {
		panic(fmt.Sprintf("slab: ref %d out of range (%d rows)", r, len(a.offs)))
	}
	start := int(a.offs[r])
	end := len(a.buf)
	if int(r)+1 < len(a.offs) {
		end = int(a.offs[r+1])
	}
	return start, end
}

// RowBytes returns the wire encoding of one row. The slice aliases the
// arena and must not be modified. Stored bytes are never rewritten in place
// (appends, seals, compaction and eviction replace or drop references, not
// bytes), so the slice stays readable across later calls; on a tiered
// arena, though, a slice into a segment evicted since keeps that payload
// alive outside the residency accounting, so callers hold rows only for
// the operation at hand. Reading a spilled row faults its segment in from
// the store; a failed verification panics *CorruptSegmentError.
func (a *Arena) RowBytes(r Ref) []byte {
	if a.t != nil {
		return a.t.rowBytes(a, r)
	}
	start, end := a.rowSpan(r)
	return a.buf[start:end]
}

// Decode materializes one row as a fresh tuple.
func (a *Arena) Decode(r Ref) types.Tuple {
	return a.DecodeInto(nil, r)
}

// DecodeInto materializes one row into buf (reused when capacity allows) and
// returns it. Int and float values decode without allocating; string values
// are copied out of the slab (a types.Value holds a string, which must not
// alias mutable arena memory), all of a row's strings sharing one backing
// allocation. A malformed row is impossible without memory corruption —
// Append writes the encoding — so decode failures panic. The fast paths for
// 1–2 byte varints are inlined: this loop runs once per value of every
// probe match.
func (a *Arena) DecodeInto(buf types.Tuple, r Ref) types.Tuple {
	src := a.RowBytes(r)
	n, c := binary.Uvarint(src)
	if c <= 0 {
		panic("slab: corrupt row header")
	}
	pos := c
	out := buf[:0]
	if uint64(cap(out)) < n {
		// One exact-size allocation instead of append growth per value.
		out = make(types.Tuple, 0, n)
	}
	a.strbuf = a.strbuf[:0]
	a.spans = a.spans[:0]
	for i := uint64(0); i < n; i++ {
		if pos >= len(src) {
			panic("slab: truncated row")
		}
		kind := types.Kind(src[pos])
		pos++
		switch kind {
		case types.KindNull:
			out = append(out, types.Value{})
		case types.KindInt:
			var x int64
			if b := src[pos]; b < 0x80 {
				x = int64(b >> 1)
				if b&1 != 0 {
					x = ^x
				}
				pos++
			} else if pos+1 < len(src) && src[pos+1] < 0x80 {
				u := uint64(b&0x7f) | uint64(src[pos+1])<<7
				x = int64(u >> 1)
				if u&1 != 0 {
					x = ^x
				}
				pos += 2
			} else {
				var c int
				x, c = binary.Varint(src[pos:])
				if c <= 0 {
					panic("slab: corrupt int")
				}
				pos += c
			}
			out = append(out, types.Value{KindV: types.KindInt, I: x})
		case types.KindFloat:
			if pos+8 > len(src) {
				panic("slab: truncated float")
			}
			f := math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
			out = append(out, types.Value{KindV: types.KindFloat, F: f})
			pos += 8
		case types.KindString:
			var l uint64
			if b := src[pos]; b < 0x80 {
				l = uint64(b)
				pos++
			} else {
				var c int
				l, c = binary.Uvarint(src[pos:])
				if c <= 0 {
					panic("slab: corrupt string length")
				}
				pos += c
			}
			if uint64(len(src)-pos) < l {
				panic("slab: truncated string")
			}
			off := len(a.strbuf)
			a.strbuf = append(a.strbuf, src[pos:pos+int(l)]...)
			a.spans = append(a.spans, valSpan{val: len(out), off: off, end: off + int(l)})
			out = append(out, types.Value{KindV: types.KindString})
			pos += int(l)
		default:
			panic(fmt.Sprintf("slab: unknown kind %d", kind))
		}
	}
	if len(a.spans) > 0 {
		s := string(a.strbuf)
		for _, sp := range a.spans {
			out[sp.val].Str = s[sp.off:sp.end]
		}
	}
	return out
}

// Live reports whether a row has not been tombstoned.
func (a *Arena) Live(r Ref) bool {
	if int(r) >= a.Rows() {
		return false
	}
	return len(a.dead) <= int(r)/64 || a.dead[r/64]&(1<<(r%64)) == 0
}

// Free tombstones a row: its bytes stay in the slab (append-only), its ref
// stops being live, and DeadBytes grows so callers can decide to compact
// (rebuild) when waste dominates. Freeing a dead or out-of-range ref is a
// no-op. Tiered arenas never clear dead bits (segment compaction encodes
// removed rows as zero-length spans), so the bitmap is the single source
// of liveness across seals and spills.
func (a *Arena) Free(r Ref) {
	if int(r) >= a.Rows() || !a.Live(r) {
		return
	}
	for len(a.dead) <= int(r)/64 {
		a.dead = append(a.dead, 0)
	}
	a.dead[r/64] |= 1 << (r % 64)
	a.live--
	if a.t != nil {
		a.t.noteFree(a, r)
		return
	}
	start, end := a.rowSpan(r)
	a.deadBytes += end - start
}

// Each visits live rows in ref order; fn returning false stops the scan.
func (a *Arena) Each(fn func(Ref) bool) {
	for i, n := 0, a.Rows(); i < n; i++ {
		r := Ref(i)
		if a.Live(r) && !fn(r) {
			return
		}
	}
}

// DeadBytes reports bytes held by tombstoned rows.
func (a *Arena) DeadBytes() int { return a.deadBytes }

// LiveBytes reports bytes held by live rows (on a tiered arena this counts
// spilled payloads too — it measures logical state, not residency).
func (a *Arena) LiveBytes() int {
	if a.t != nil {
		return len(a.buf) + int(a.t.segPayloadTotal) - a.deadBytes
	}
	return len(a.buf) - a.deadBytes
}

// MemSize reports the arena's real in-memory footprint in bytes: the byte
// slab, the offset table and the tombstone bitmap, at their allocated
// capacities. Unlike types.Tuple.MemSize sums, this is the number the Go
// heap actually pays. On a tiered arena this counts only resident bytes —
// sealed-segment payloads currently in RAM plus their offset tables —
// which is what makes MemLimitPerTask a cap on residency, not on state.
func (a *Arena) MemSize() int {
	n := cap(a.buf) + 4*cap(a.offs) + 8*cap(a.dead) + 64
	if a.t != nil {
		n += int(a.t.residentBlobBytes) + 4*(a.t.segRows+1)*len(a.t.segs)
	}
	return n
}

// Compact rebuilds the arena with only its live rows, reclaiming tombstoned
// bytes, and returns the ref remap: remap[old] is the old row's new ref, or
// NoRef if the row was dead. Refs are renumbered densely in arrival order,
// so iteration order is preserved. Callers owning external ref tables
// (indexes, window expiration queues) must rewrite them through the remap —
// localjoin.Traditional drives this from its DeadBytes > LiveBytes trigger.
//
// On a tiered arena Compact never renumbers: it force-compacts every
// resident sealed segment in place and returns an identity remap (NoRef
// for dead rows), since refs are stable by construction. Prefer Maintain
// for incremental, amortized compaction.
func (a *Arena) Compact() []Ref {
	if a.t != nil {
		a.t.compactAll(a)
		remap := make([]Ref, a.Rows())
		for i := range remap {
			if a.Live(Ref(i)) {
				remap[i] = Ref(i)
			} else {
				remap[i] = NoRef
			}
		}
		return remap
	}
	remap := make([]Ref, len(a.offs))
	buf := make([]byte, 0, a.LiveBytes())
	offs := make([]uint32, 0, a.live)
	for i := range a.offs {
		r := Ref(i)
		if !a.Live(r) {
			remap[i] = NoRef
			continue
		}
		remap[i] = Ref(len(offs))
		offs = append(offs, uint32(len(buf)))
		start, end := a.rowSpan(r)
		buf = append(buf, a.buf[start:end]...)
	}
	a.buf = buf
	a.offs = offs
	a.dead = nil
	a.deadBytes = 0
	return remap
}

// EachFrame chunks the live rows into wire batch frames of up to batchSize
// rows each — varint(count) followed by the rows' stored bytes, blitted
// without decoding — and passes each frame (and its row count) to visit.
// Frames reuse one internal buffer, valid only during the callback; visit
// returning false stops the scan. scratch, if non-nil, seeds the buffer.
func (a *Arena) EachFrame(batchSize int, scratch []byte, visit func(frame []byte, count int) bool) {
	if batchSize <= 0 {
		batchSize = 1
	}
	frame := scratch[:0]
	remaining := a.live
	count := 0
	for i, n := 0, a.Rows(); i < n; i++ {
		r := Ref(i)
		if !a.Live(r) {
			continue
		}
		if count == 0 {
			n := remaining
			if n > batchSize {
				n = batchSize
			}
			frame = binary.AppendUvarint(frame[:0], uint64(n))
		}
		frame = append(frame, a.RowBytes(r)...)
		count++
		remaining--
		if count == batchSize || remaining == 0 {
			if !visit(frame, count) {
				return
			}
			count = 0
		}
	}
}

// EachFooterFrame is EachFrame with a column-offset footer appended to every
// uniform-arity frame (wire.AppendFooter), so vectorized consumers can view
// exported state column-wise without re-scanning row headers. Frames whose
// rows mix arity stay bare — the footer is advisory either way.
func (a *Arena) EachFooterFrame(batchSize int, scratch []byte, visit func(frame []byte, count int) bool) {
	a.EachFrame(batchSize, scratch, func(frame []byte, count int) bool {
		return visit(wire.AppendFooter(frame), count)
	})
}
