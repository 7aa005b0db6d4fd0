package slab

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"squall/internal/wire"
)

// Tiered arena state (the memory-pressure survival layer). A tiered arena
// splits its rows into a mutable hot region (the classic buf/offs tail being
// appended to) and a list of sealed segments: append-frozen runs of exactly
// SegmentRows rows each. Sealing never renumbers anything — ref r lives in
// segment r/SegmentRows (or the hot region past the last seal) forever, so
// indexes and window queues keep their refs across seals, spills and
// segment compactions. Sealed segments are:
//
//	hot → sealed (dirty) ─spill─→ spilled ──→ quarantined
//	        │    ↑                  │  ↑
//	        └compact                │  └─ dropped (clean: copy is durable)
//	                                └─ faulted in → resident (clean)
//
//   - compacted in place segment-by-segment (dead rows become zero-length
//     spans; refs stay stable) instead of the legacy stop-the-world
//     Arena.Compact rebuild;
//   - held in one resident pool: every segment whose payload is in RAM,
//     dirty (never spilled) or clean (faulted back in, spill copy still
//     valid), on an intrusive LRU list. Once the pressure ladder reaches
//     PressureSpill, the fault path and the maintenance step each evict
//     the coldest pool segment: a clean one is dropped, a dirty one is
//     spilled to the SegmentStore in the checksummed segment encoding —
//     once, since spilled payloads are immutable. Residency is bounded by
//     the ladder, so a hot segment that spilled early is faulted in once
//     and stays resident;
//   - faulted back in on access, every read CRC- and identity-verified
//     without allocating — a corrupt, torn or foreign segment is
//     quarantined and the access panics with *CorruptSegmentError, which
//     the dataflow recovery plane turns into a checkpoint restore (never
//     fabricated rows).
//
// Without a ladder (Store set, Pressure nil) every segment spills eagerly
// at seal and the pool holds at most CacheSegments faulted-in segments.
//
// The tier is opt-in per arena (EnableTier on an empty arena); a plain
// arena is byte-for-byte the legacy code path.

// tierGen distinguishes arena generations within one process so a reborn
// task's segments never collide with its predecessor's keys in a shared
// store.
var tierGen atomic.Uint64

// SegmentStore persists sealed segments by key. recovery.MemStore and
// recovery.DiskStore implement it structurally; slab declares the interface
// so the state layer stays import-free of the recovery plane.
type SegmentStore interface {
	PutSegment(key string, blob []byte) error
	GetSegment(key string) (blob []byte, ok bool, err error)
	DeleteSegment(key string) error
}

// TierConfig configures one arena's tier.
type TierConfig struct {
	// SegmentRows is the seal threshold (rows per sealed segment). Rounded
	// up to a multiple of 64 so per-segment dead bitmaps are word-aligned.
	// Default 1024.
	SegmentRows int
	// Store is the spill target. Nil disables spilling: the tier still
	// seals and compacts segment-by-segment but keeps everything resident.
	Store SegmentStore
	// CkStore is the checkpoint domain for incremental checkpoints: sealed
	// segments are persisted here once ("ck-" keys, written before the
	// spill copy so a checkpoint never depends on a spilled blob) and
	// referenced by key+CRC from later checkpoints instead of being
	// re-exported as frames. Nil disables incremental checkpoints.
	CkStore SegmentStore
	// CacheSegments caps how many spilled segments an eager tier (Store set,
	// Pressure nil) keeps faulted in at once. Default 4. Under a Pressure
	// ladder it is unused: the ladder alone bounds residency.
	CacheSegments int
	// Pressure, when set, drives eviction: while the ladder is at
	// PressureSpill or above, the coldest resident segment is evicted
	// (dropped if clean, spilled if dirty) on every fault and maintenance
	// step. When nil and Store is set, every segment spills eagerly at
	// seal.
	Pressure *Pressure
	// KeyPrefix namespaces this arena's segment keys in the stores.
	KeyPrefix string
}

// CorruptSegmentError is the panic payload raised when a spilled segment
// fails CRC verification (or vanished) on fault-in. The dataflow layer
// captures it like any task panic and restores the operator through the
// recovery plane; the segment itself is quarantined first so the bad bytes
// are never served.
type CorruptSegmentError struct {
	Key     string // spill-store key of the bad segment
	Segment int    // segment index within its arena
	Err     error
}

func (e *CorruptSegmentError) Error() string {
	return fmt.Sprintf("slab: segment %d (%s) corrupt: %v", e.Segment, e.Key, e.Err)
}

func (e *CorruptSegmentError) Unwrap() error { return e.Err }

// SegmentCk references one sealed segment from an incremental checkpoint:
// the blob lives in the checkpoint store under Key (written once, at seal
// persistence), and Dead is the segment's tombstone bitmap at checkpoint
// time — restore skips those rows, which also covers rows compacted away
// after the blob was written (dead bits are never cleared in tiered mode).
type SegmentCk struct {
	Key  string
	CRC  uint32
	Rows int
	Dead []uint64
}

// TierStats snapshots one tiered arena (tests, bench, debugging).
type TierStats struct {
	SealedSegments  int
	SpilledSegments int
	CachedSegments  int
	Quarantined     int
	Spills          int64
	Faults          int64
	SpillErrors     int64
	ResidentBytes   int64
	SpilledBytes    int64
}

// segment is one append-frozen run of segRows rows. offs stays resident
// always (4*(segRows+1) bytes — the ref→span map); blob is the packed row
// payload and is nil while spilled and not faulted in.
type segment struct {
	si          int      // index in tier.segs
	offs        []uint32 // segRows+1 local offsets; zero-length span = compacted-away row
	blob        []byte   // row payload; nil when spilled and not faulted in
	crc         uint32   // CRC of the encoded segment (set at spill)
	deadBytes   int      // tombstoned payload bytes not yet compacted
	spilled     bool     // a verified copy lives in cfg.Store under key (resident ⇒ clean)
	key         string   // spill-store key
	persisted   bool     // a copy lives in cfg.CkStore under ckKey
	ckKey       string
	ckCRC       uint32
	quarantined bool // failed verification on fault-in; never served again
	// prev/next link a resident segment into tier.pool (nil while its
	// payload is not in RAM).
	prev, next *segment
}

type tier struct {
	cfg     TierConfig
	segRows int
	segs    []*segment
	gauge   *PressureGauge
	keyBase string

	// pool is the sentinel of the resident pool: a circular LRU list of
	// every sealed segment with its payload in RAM, pool.next the most
	// recently used and pool.prev the coldest.
	pool segment

	hotDeadBytes      int   // tombstoned bytes in the hot region (moves into the segment at seal)
	residentBlobBytes int64 // payload bytes of segments currently in RAM
	segPayloadTotal   int64 // logical payload bytes of all sealed segments
	spilledPayload    int64 // payload bytes of segments with a spill copy
	cached            int   // clean pool segments (spilled, faulted back in)
	appends           int   // amortization counter for maintenance from Append
	compactCursor     int   // round-robin position of the background compactor
	spills            int64
	faults            int64
	spillErrors       int64
	quarantined       int
}

// EnableTier converts an empty arena to tiered operation. Panics if the
// arena already holds rows or is already tiered.
func (a *Arena) EnableTier(cfg TierConfig) {
	if a.t != nil {
		panic("slab: tier already enabled")
	}
	if len(a.offs) != 0 {
		panic("slab: EnableTier on a non-empty arena")
	}
	if cfg.SegmentRows <= 0 {
		cfg.SegmentRows = 1024
	}
	cfg.SegmentRows = (cfg.SegmentRows + 63) &^ 63
	if cfg.CacheSegments <= 0 {
		cfg.CacheSegments = 4
	}
	if cfg.KeyPrefix == "" {
		cfg.KeyPrefix = "arena"
	}
	t := &tier{
		cfg:     cfg,
		segRows: cfg.SegmentRows,
		gauge:   cfg.Pressure.Gauge(),
		keyBase: fmt.Sprintf("%s-g%d", cfg.KeyPrefix, tierGen.Add(1)),
	}
	t.pool.prev, t.pool.next = &t.pool, &t.pool
	a.t = t
}

// Tiered reports whether the arena runs the tiered state layer.
func (a *Arena) Tiered() bool { return a.t != nil }

// SpilledBytes reports payload bytes with a spill copy on disk (0 for a
// plain arena).
func (a *Arena) SpilledBytes() int {
	if a.t == nil {
		return 0
	}
	return int(a.t.spilledPayload)
}

// SealedSegments reports the sealed segment count (0 for a plain arena).
func (a *Arena) SealedSegments() int {
	if a.t == nil {
		return 0
	}
	return len(a.t.segs)
}

// TierStats snapshots the tier (zero value for a plain arena).
func (a *Arena) TierStats() TierStats {
	t := a.t
	if t == nil {
		return TierStats{}
	}
	st := TierStats{
		SealedSegments: len(t.segs),
		CachedSegments: t.cached,
		Quarantined:    t.quarantined,
		Spills:         t.spills,
		Faults:         t.faults,
		SpillErrors:    t.spillErrors,
		ResidentBytes:  int64(a.MemSize()),
		SpilledBytes:   t.spilledPayload,
	}
	for _, s := range t.segs {
		if s.spilled {
			st.SpilledSegments++
		}
	}
	return st
}

// ReleaseTier refunds the arena's pressure-gauge charges (task reborn,
// reshaped or finished). No-op on a plain arena; safe to call twice.
func (a *Arena) ReleaseTier() {
	if a.t != nil {
		a.t.gauge.Release()
	}
}

// Maintain runs one amortized maintenance step: at most one segment
// compaction, at most one pressure-driven spill, and a gauge sync. Cheap
// enough to call from operator hot paths (it is also driven automatically
// from Append); no-op on a plain arena.
func (a *Arena) Maintain() {
	if a.t != nil {
		a.t.maintain(a)
	}
}

// hotBase returns the first hot (unsealed) ref.
func (t *tier) hotBase() int { return len(t.segs) * t.segRows }

// poolPush links a newly resident segment in as the most recently used.
func (t *tier) poolPush(s *segment) {
	s.prev, s.next = &t.pool, t.pool.next
	s.next.prev = s
	t.pool.next = s
}

// poolRemove unlinks a segment whose payload leaves RAM.
func (t *tier) poolRemove(s *segment) {
	s.prev.next, s.next.prev = s.next, s.prev
	s.prev, s.next = nil, nil
}

// touch marks a resident segment most recently used.
func (t *tier) touch(s *segment) {
	if t.pool.next != s {
		t.poolRemove(s)
		t.poolPush(s)
	}
}

// coldest returns the least recently used pool segment that is clean (when
// clean is set) or dirty (when dirty is set), or nil. With both set it is
// O(1): the tail of the list.
func (t *tier) coldest(clean, dirty bool) *segment {
	for s := t.pool.prev; s != &t.pool; s = s.prev {
		if s.spilled && clean || !s.spilled && dirty {
			return s
		}
	}
	return nil
}

// evict takes one segment's payload out of RAM: a clean segment is dropped
// (its spill copy is durable and immutable), a dirty one is spilled. A
// failed spill leaves the segment resident.
func (t *tier) evict(a *Arena, s *segment) {
	if !s.spilled {
		t.spillSeg(a, s)
		return
	}
	t.residentBlobBytes -= int64(len(s.blob))
	s.blob = nil
	t.cached--
	t.poolRemove(s)
}

// faultVictim picks the segment a fault-in displaces: under a ladder at
// PressureSpill or above the coldest pool segment, without a ladder the
// coldest clean one once CacheSegments are resident, else none.
func (t *tier) faultVictim() *segment {
	switch {
	case t.cfg.Pressure == nil && t.cached >= t.cfg.CacheSegments:
		return t.coldest(true, false)
	case t.pressured():
		return t.coldest(true, true)
	}
	return nil
}

// pressured reports whether the ladder asks the pool to shrink.
func (t *tier) pressured() bool {
	return t.cfg.Pressure != nil && t.cfg.Pressure.Stage() >= PressureSpill
}

// afterAppend runs the tier's per-append bookkeeping: seal when the hot
// region fills, plus an amortized maintenance step.
func (t *tier) afterAppend(a *Arena) {
	if len(a.offs) >= t.segRows {
		t.seal(a)
	}
	t.appends++
	if t.appends&15 == 0 {
		t.maintain(a)
	}
}

// seal freezes the hot region into a new segment. The hot buf becomes the
// segment payload (ownership transfer, no copy); refs are unchanged.
func (t *tier) seal(a *Arena) {
	n := len(a.offs) // == segRows
	offs := make([]uint32, n+1)
	copy(offs, a.offs)
	offs[n] = uint32(len(a.buf))
	seg := &segment{
		si:        len(t.segs),
		offs:      offs,
		blob:      a.buf,
		deadBytes: t.hotDeadBytes,
	}
	t.segs = append(t.segs, seg)
	t.poolPush(seg)
	t.hotDeadBytes = 0
	t.residentBlobBytes += int64(len(seg.blob))
	t.segPayloadTotal += int64(len(seg.blob))
	a.buf = nil
	a.offs = a.offs[:0]
	if t.cfg.Store != nil && t.cfg.Pressure == nil {
		// No ladder: spill eagerly so memory stays bounded by the cache.
		t.spillSeg(a, seg)
	}
	t.syncGauge(a)
}

// maintain is one background-compactor + spill-ladder step.
func (t *tier) maintain(a *Arena) {
	t.compactStep(a)
	t.spillStep(a)
	t.syncGauge(a)
}

// compactStep advances the round-robin compactor one segment, rewriting it
// without its tombstoned payload when waste dominates. Spilled and
// quarantined segments are immutable and skipped.
func (t *tier) compactStep(a *Arena) {
	if len(t.segs) == 0 {
		return
	}
	t.compactCursor++
	if t.compactCursor >= len(t.segs) {
		t.compactCursor = 0
	}
	si := t.compactCursor
	seg := t.segs[si]
	payload := int(seg.offs[len(seg.offs)-1])
	if seg.spilled || seg.quarantined || seg.blob == nil {
		return
	}
	if seg.deadBytes < compactMinDead || seg.deadBytes*2 <= payload {
		return
	}
	t.compactSeg(a, si)
}

// compactMinDead is the per-segment compaction floor: below this much
// tombstoned payload a rewrite isn't worth the copy.
const compactMinDead = 4 << 10

// compactSeg rewrites one resident segment keeping only live rows; dead
// rows become zero-length spans so refs stay stable and the slot count
// never changes.
func (t *tier) compactSeg(a *Arena, si int) {
	seg := t.segs[si]
	base := si * t.segRows
	old := len(seg.blob)
	buf := make([]byte, 0, old-seg.deadBytes)
	offs := make([]uint32, len(seg.offs))
	for i := 0; i < t.segRows; i++ {
		offs[i] = uint32(len(buf))
		if a.Live(Ref(base + i)) {
			buf = append(buf, seg.blob[seg.offs[i]:seg.offs[i+1]]...)
		}
	}
	offs[t.segRows] = uint32(len(buf))
	seg.blob = buf
	seg.offs = offs
	t.residentBlobBytes += int64(len(buf) - old)
	t.segPayloadTotal += int64(len(buf) - old)
	a.deadBytes -= seg.deadBytes
	seg.deadBytes = 0
}

// spillStep is the maintenance half of eviction. Under a ladder at
// PressureSpill or above it evicts the coldest pool segment; without a
// ladder it retries the coldest dirty segment whose eager spill failed.
func (t *tier) spillStep(a *Arena) {
	if t.cfg.Store == nil {
		return
	}
	if t.cfg.Pressure == nil {
		if s := t.coldest(false, true); s != nil {
			t.spillSeg(a, s)
		}
		return
	}
	if t.pressured() {
		if s := t.coldest(true, true); s != nil {
			t.evict(a, s)
		}
	}
}

// spillSeg writes one sealed segment to the spill store and drops its
// resident payload. When a checkpoint store is attached the durable "ck-"
// copy is written first (once per segment), so a later checkpoint can
// reference the segment by key without ever reading the spill copy — the
// spill and checkpoint domains fail independently. A failed write leaves
// the segment resident (counted in SpillErrors); the ladder escalates to
// backpressure instead of losing state.
func (t *tier) spillSeg(a *Arena, seg *segment) {
	si := seg.si
	enc := AppendSegment(nil, seg.offs, seg.blob)
	crc := binary.LittleEndian.Uint32(enc[len(enc)-4:])
	if t.cfg.CkStore != nil && !seg.persisted {
		ckKey := fmt.Sprintf("ck-%s-s%d", t.keyBase, si)
		if err := t.cfg.CkStore.PutSegment(ckKey, enc); err != nil {
			t.spillErrors++
			t.cfg.Pressure.noteSpillError()
			return
		}
		seg.persisted, seg.ckKey, seg.ckCRC = true, ckKey, crc
	}
	key := fmt.Sprintf("sp-%s-s%d", t.keyBase, si)
	if err := t.cfg.Store.PutSegment(key, enc); err != nil {
		t.spillErrors++
		t.cfg.Pressure.noteSpillError()
		return
	}
	seg.spilled, seg.key, seg.crc = true, key, crc
	t.residentBlobBytes -= int64(len(seg.blob))
	t.spilledPayload += int64(len(seg.blob))
	seg.blob = nil
	t.poolRemove(seg)
	t.spills++
	t.cfg.Pressure.noteSpill()
}

// rowBytes resolves one ref in tiered mode, faulting its segment in when
// spilled.
func (t *tier) rowBytes(a *Arena, r Ref) []byte {
	hb := t.hotBase()
	if int(r) >= hb {
		i := int(r) - hb
		if i >= len(a.offs) {
			panic(fmt.Sprintf("slab: ref %d out of range (%d rows)", r, hb+len(a.offs)))
		}
		start := int(a.offs[i])
		end := len(a.buf)
		if i+1 < len(a.offs) {
			end = int(a.offs[i+1])
		}
		return a.buf[start:end]
	}
	seg := t.ensureBlob(a, int(r)/t.segRows)
	i := int(r) % t.segRows
	return seg.blob[seg.offs[i]:seg.offs[i+1]]
}

// ensureBlob returns the segment with its payload resident, faulting it in
// from the spill store if needed. The fetched blob is verified against the
// segment's sealed identity without allocating; a corrupt, missing or
// mismatched blob quarantines the segment and panics *CorruptSegmentError.
// Admitting it first evicts the faultVictim, if any.
func (t *tier) ensureBlob(a *Arena, si int) *segment {
	seg := t.segs[si]
	if seg.blob != nil {
		t.touch(seg)
		return seg
	}
	if seg.quarantined {
		panic(&CorruptSegmentError{Key: seg.key, Segment: si,
			Err: fmt.Errorf("%w: already quarantined", ErrSegmentCorrupt)})
	}
	blob, ok, err := t.cfg.Store.GetSegment(seg.key)
	if err == nil && !ok {
		err = fmt.Errorf("%w: spilled segment missing from store", ErrSegmentCorrupt)
	}
	var payload []byte
	if err == nil {
		payload, err = verifySegment(blob, seg.offs, seg.crc)
	}
	if err != nil {
		t.quarantine(a, si, err) // panics
	}
	if victim := t.faultVictim(); victim != nil {
		t.evict(a, victim)
	}
	seg.blob = payload
	t.poolPush(seg)
	t.residentBlobBytes += int64(len(payload))
	t.cached++
	t.faults++
	t.cfg.Pressure.noteFault()
	t.syncGauge(a)
	return seg
}

// quarantine marks a segment unreadable, deletes its (bad) spill copy
// best-effort and panics *CorruptSegmentError so the recovery plane
// restores the operator from checkpoint — corrupt bytes are never decoded
// into rows.
func (t *tier) quarantine(a *Arena, si int, cause error) {
	seg := t.segs[si]
	seg.quarantined = true
	t.quarantined++
	if seg.key != "" {
		_ = t.cfg.Store.DeleteSegment(seg.key)
	}
	t.cfg.Pressure.noteQuarantine()
	t.syncGauge(a)
	panic(&CorruptSegmentError{Key: seg.key, Segment: si, Err: cause})
}

// noteFree records a tombstone's byte cost against the right region.
func (t *tier) noteFree(a *Arena, r Ref) {
	hb := t.hotBase()
	if int(r) >= hb {
		i := int(r) - hb
		start := int(a.offs[i])
		end := len(a.buf)
		if i+1 < len(a.offs) {
			end = int(a.offs[i+1])
		}
		a.deadBytes += end - start
		t.hotDeadBytes += end - start
		return
	}
	seg := t.segs[int(r)/t.segRows]
	i := int(r) % t.segRows
	span := int(seg.offs[i+1] - seg.offs[i])
	a.deadBytes += span
	seg.deadBytes += span
}

// syncGauge folds the arena's current footprint into the pressure ladder.
func (t *tier) syncGauge(a *Arena) {
	if t.gauge == nil {
		return
	}
	t.gauge.set(int64(a.MemSize()), t.spilledPayload, int64(len(t.segs)))
}

// compactAll force-compacts every resident segment (the tiered half of the
// public Compact API).
func (t *tier) compactAll(a *Arena) {
	for si, seg := range t.segs {
		if seg.spilled || seg.quarantined || seg.blob == nil || seg.deadBytes == 0 {
			continue
		}
		t.compactSeg(a, si)
	}
	t.syncGauge(a)
}

// deadWords copies the word-aligned slice of the global tombstone bitmap
// covering segment si (segRows is a multiple of 64), zero-padded past the
// bitmap's lazily-grown end.
func (t *tier) deadWords(a *Arena, si int) []uint64 {
	words := t.segRows / 64
	start := si * words
	out := make([]uint64, words)
	for i := 0; i < words; i++ {
		if start+i < len(a.dead) {
			out[i] = a.dead[start+i]
		}
	}
	return out
}

// SealedSegmentCks persists every not-yet-persisted sealed segment to the
// tier's checkpoint store and returns one SegmentCk per sealed segment:
// the incremental-checkpoint manifest. Segments persisted by an earlier
// call (or at spill time) are referenced without being rewritten — the
// incremental property. The per-segment Dead bitmaps are snapshotted now,
// so restore observes tombstones later than the blob write.
func (a *Arena) SealedSegmentCks() ([]SegmentCk, error) {
	t := a.t
	if t == nil {
		return nil, errors.New("slab: SealedSegmentCks on a plain arena")
	}
	if t.cfg.CkStore == nil {
		return nil, errors.New("slab: tier has no checkpoint store")
	}
	out := make([]SegmentCk, 0, len(t.segs))
	for si, seg := range t.segs {
		if !seg.persisted {
			// Unpersisted ⇒ never spilled ⇒ payload resident.
			enc := AppendSegment(nil, seg.offs, seg.blob)
			crc := binary.LittleEndian.Uint32(enc[len(enc)-4:])
			ckKey := fmt.Sprintf("ck-%s-s%d", t.keyBase, si)
			if err := t.cfg.CkStore.PutSegment(ckKey, enc); err != nil {
				return nil, fmt.Errorf("slab: persist segment %d: %w", si, err)
			}
			seg.persisted, seg.ckKey, seg.ckCRC = true, ckKey, crc
		}
		out = append(out, SegmentCk{
			Key:  seg.ckKey,
			CRC:  seg.ckCRC,
			Rows: t.segRows,
			Dead: t.deadWords(a, si),
		})
	}
	return out, nil
}

// EachHotFrame is EachFrame restricted to the hot (unsealed) region — the
// incremental checkpoint's delta since the last seal. footer selects the
// column-offset footer variant. On a plain arena it covers every row.
func (a *Arena) EachHotFrame(batchSize int, footer bool, scratch []byte, visit func(frame []byte, count int) bool) {
	emit := visit
	if footer {
		emit = func(frame []byte, count int) bool {
			return visit(wire.AppendFooter(frame), count)
		}
	}
	if batchSize <= 0 {
		batchSize = 1
	}
	hb := 0
	if a.t != nil {
		hb = a.t.hotBase()
	}
	liveHot := 0
	for i := hb; i < a.Rows(); i++ {
		if a.Live(Ref(i)) {
			liveHot++
		}
	}
	frame := scratch[:0]
	count := 0
	remaining := liveHot
	for i := hb; i < a.Rows(); i++ {
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
			if !emit(frame, count) {
				return
			}
			count = 0
		}
	}
}

// SpillReporter is implemented by operator state that can distinguish
// resident from spilled bytes (the tenant-accounting hook).
type SpillReporter interface {
	SpilledBytes() int
}

// Pressure counter hooks (nil-safe so an unladdered tier costs nothing).

func (p *Pressure) noteSpill() {
	if p != nil {
		p.spills.Add(1)
	}
}

func (p *Pressure) noteFault() {
	if p != nil {
		p.faults.Add(1)
	}
}

func (p *Pressure) noteSpillError() {
	if p != nil {
		p.spillErrors.Add(1)
	}
}

func (p *Pressure) noteQuarantine() {
	if p != nil {
		p.quarantined.Add(1)
	}
}
