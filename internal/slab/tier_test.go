package slab

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"squall/internal/types"
	"squall/internal/wire"
)

// mapStore is a SegmentStore for tests, with optional fault injection.
type mapStore struct {
	m       map[string][]byte
	puts    int
	corrupt func(key string, blob []byte) []byte // applied at Put
	putErr  error
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) PutSegment(key string, blob []byte) error {
	if s.putErr != nil {
		return s.putErr
	}
	s.puts++
	b := append([]byte(nil), blob...)
	if s.corrupt != nil {
		b = s.corrupt(key, b)
	}
	s.m[key] = b
	return nil
}

func (s *mapStore) GetSegment(key string) ([]byte, bool, error) {
	b, ok := s.m[key]
	return b, ok, nil
}

func (s *mapStore) DeleteSegment(key string) error {
	delete(s.m, key)
	return nil
}

func tupleFor(i int) types.Tuple {
	return types.Tuple{
		types.Int(int64(i)),
		types.Str(fmt.Sprintf("row-%d-%s", i, string(make([]byte, 40+i%17)))),
		types.Float(float64(i) * 1.5),
	}
}

// Tiered and legacy arenas must agree on every observable after a random
// append/free workload (no store: seal + segment compaction only).
func TestTieredEquivalence(t *testing.T) {
	legacy := New()
	tiered := New()
	tiered.EnableTier(TierConfig{SegmentRows: 64})

	rng := rand.New(rand.NewSource(42))
	var refs []Ref
	for i := 0; i < 2000; i++ {
		tup := tupleFor(i)
		r1 := legacy.Append(tup)
		r2 := tiered.Append(tup)
		if r1 != r2 {
			t.Fatalf("ref divergence at %d: legacy %d tiered %d", i, r1, r2)
		}
		refs = append(refs, r1)
		if rng.Intn(3) == 0 && len(refs) > 0 {
			victim := refs[rng.Intn(len(refs))]
			legacy.Free(victim)
			tiered.Free(victim)
		}
	}
	for i := 0; i < 500; i++ {
		tiered.Maintain() // drive segment compaction
	}
	if legacy.Rows() != tiered.Rows() || legacy.Len() != tiered.Len() {
		t.Fatalf("rows/len diverge: legacy %d/%d tiered %d/%d",
			legacy.Rows(), legacy.Len(), tiered.Rows(), tiered.Len())
	}
	for i := 0; i < legacy.Rows(); i++ {
		r := Ref(i)
		if legacy.Live(r) != tiered.Live(r) {
			t.Fatalf("liveness diverges at ref %d", r)
		}
		if !legacy.Live(r) {
			continue
		}
		want := legacy.Decode(r)
		got := tiered.Decode(r)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("row %d diverges:\nlegacy %v\ntiered %v", r, want, got)
		}
	}
	if tiered.SealedSegments() == 0 {
		t.Fatal("no segments sealed")
	}
}

// Eager spill: every sealed segment goes to the store, reads fault them
// back in, residency stays bounded by the cache, and every row survives
// the round trip bit-for-bit.
func TestTierSpillFaultIn(t *testing.T) {
	store := newMapStore()
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, CacheSegments: 2, KeyPrefix: "t"})

	const n = 1000
	want := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		want[i] = tupleFor(i)
		a.Append(want[i])
	}
	st := a.TierStats()
	if st.SealedSegments == 0 || st.SpilledSegments != st.SealedSegments {
		t.Fatalf("eager spill incomplete: %+v", st)
	}
	// Random access pattern to exercise cache eviction.
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 5000; k++ {
		i := rng.Intn(n)
		got := a.Decode(Ref(i))
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Fatalf("row %d diverges after spill: %v != %v", i, got, want[i])
		}
	}
	st = a.TierStats()
	if st.Faults == 0 {
		t.Fatal("no segment faults recorded")
	}
	if st.CachedSegments > 2 {
		t.Fatalf("cache over cap: %d cached", st.CachedSegments)
	}
	if a.SpilledBytes() == 0 {
		t.Fatal("SpilledBytes = 0 after spilling")
	}
	// MemSize must be far below the logical state (most payload on disk).
	if a.MemSize() >= a.LiveBytes() {
		t.Fatalf("MemSize %d not reduced below logical %d", a.MemSize(), a.LiveBytes())
	}
}

// Refs must survive seal + spill + compaction unchanged (the stable-ref
// contract that lets indexes and window queues skip remapping).
func TestTierStableRefs(t *testing.T) {
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64})
	var live []Ref
	var want []types.Tuple
	for i := 0; i < 1500; i++ {
		tup := tupleFor(i)
		r := a.Append(tup)
		if i%3 == 0 {
			a.Free(r)
		} else {
			live = append(live, r)
			want = append(want, tup)
		}
	}
	remap := a.Compact() // tiered: identity remap, in-place segment rewrites
	for i, r := range live {
		if remap[r] != r {
			t.Fatalf("remap[%d] = %d, want identity", r, remap[r])
		}
		if fmt.Sprint(a.Decode(r)) != fmt.Sprint(want[i]) {
			t.Fatalf("row %d diverges after compaction", r)
		}
	}
}

// A corrupted spill blob must quarantine the segment and panic with
// *CorruptSegmentError — never decode garbage into rows.
func TestTierQuarantine(t *testing.T) {
	store := newMapStore()
	store.corrupt = func(key string, blob []byte) []byte {
		blob[len(blob)/2] ^= 0x40
		return blob
	}
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, KeyPrefix: "q"})
	for i := 0; i < 100; i++ {
		a.Append(tupleFor(i))
	}
	if a.TierStats().SpilledSegments == 0 {
		t.Fatal("nothing spilled")
	}
	func() {
		defer func() {
			r := recover()
			var ce *CorruptSegmentError
			if err, ok := r.(error); !ok || !errors.As(err, &ce) {
				t.Fatalf("recover() = %v, want *CorruptSegmentError", r)
			}
			if !errors.Is(ce, ErrSegmentCorrupt) {
				t.Fatalf("error does not wrap ErrSegmentCorrupt: %v", ce)
			}
		}()
		a.RowBytes(0) // faults in segment 0 → CRC mismatch
		t.Fatal("corrupted read did not panic")
	}()
	st := a.TierStats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	// The quarantined segment must stay unreadable (no second chance at
	// serving the bad bytes).
	func() {
		defer func() { _ = recover() }()
		a.RowBytes(0)
		t.Fatal("second read of quarantined segment did not panic")
	}()
}

// Incremental checkpoints: segments persist to the ck store exactly once;
// later calls reference them by key without rewriting, and the dead
// bitmaps snapshot checkpoint-time tombstones.
func TestSealedSegmentCks(t *testing.T) {
	ck := newMapStore()
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, CkStore: ck, KeyPrefix: "c"})
	for i := 0; i < 200; i++ {
		a.Append(tupleFor(i))
	}
	cks, err := a.SealedSegmentCks()
	if err != nil {
		t.Fatalf("SealedSegmentCks: %v", err)
	}
	if len(cks) != a.SealedSegments() {
		t.Fatalf("%d cks for %d segments", len(cks), a.SealedSegments())
	}
	firstPuts := ck.puts
	if firstPuts != len(cks) {
		t.Fatalf("%d puts for %d new segments", firstPuts, len(cks))
	}

	a.Free(Ref(0)) // tombstone after persistence
	for i := 200; i < 280; i++ {
		a.Append(tupleFor(i))
	}
	cks2, err := a.SealedSegmentCks()
	if err != nil {
		t.Fatalf("second SealedSegmentCks: %v", err)
	}
	newSegs := a.SealedSegments() - len(cks)
	if ck.puts != firstPuts+newSegs {
		t.Fatalf("incremental violated: %d new puts for %d new segments", ck.puts-firstPuts, newSegs)
	}
	if cks2[0].Dead[0]&1 == 0 {
		t.Fatal("checkpoint-time tombstone not in Dead bitmap")
	}
	// Blobs in the store must decode and match their recorded CRC.
	for _, c := range cks2 {
		blob, ok, err := ck.GetSegment(c.Key)
		if err != nil || !ok {
			t.Fatalf("ck blob %s missing (%v)", c.Key, err)
		}
		_, _, crc, err := DecodeSegment(blob)
		if err != nil || crc != c.CRC {
			t.Fatalf("ck blob %s: decode %v, crc %08x want %08x", c.Key, err, crc, c.CRC)
		}
	}
}

// Spill-store write failures must leave segments resident and counted, not
// lose state (degradation, not data loss).
func TestTierSpillErrorKeepsResident(t *testing.T) {
	store := newMapStore()
	store.putErr = errors.New("disk full")
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, KeyPrefix: "e"})
	for i := 0; i < 200; i++ {
		a.Append(tupleFor(i))
	}
	st := a.TierStats()
	if st.SpilledSegments != 0 || st.SpillErrors == 0 {
		t.Fatalf("spill errors mishandled: %+v", st)
	}
	for i := 0; i < 200; i++ {
		if fmt.Sprint(a.Decode(Ref(i))) != fmt.Sprint(tupleFor(i)) {
			t.Fatalf("row %d lost after spill errors", i)
		}
	}
}

func TestPressureLadder(t *testing.T) {
	p := NewPressure(1000)
	g := p.Gauge()
	cases := []struct {
		resident int64
		want     PressureStage
	}{
		{0, PressureNormal}, {700, PressureNormal}, {750, PressureSpill},
		{919, PressureSpill}, {920, PressureBackpressure}, {999, PressureBackpressure},
		{1000, PressureReject}, {500, PressureNormal},
	}
	for _, c := range cases {
		g.set(c.resident, 0, 0)
		if got := p.Stage(); got != c.want {
			t.Fatalf("stage at %d/1000 = %v, want %v", c.resident, got, c.want)
		}
	}
	g.set(800, 300, 5)
	g2 := p.Gauge()
	g2.set(100, 50, 2)
	if p.ResidentBytes() != 900 || p.SpilledBytes() != 350 {
		t.Fatalf("multi-gauge totals wrong: %d resident, %d spilled", p.ResidentBytes(), p.SpilledBytes())
	}
	g.Release()
	g.Release() // idempotent
	if p.ResidentBytes() != 100 || p.SpilledBytes() != 50 {
		t.Fatalf("release refund wrong: %d resident, %d spilled", p.ResidentBytes(), p.SpilledBytes())
	}
	st := p.Stats()
	if st.Stage != "normal" || st.SealedSegments != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	var nilP *Pressure
	if nilP.Stage() != PressureNormal {
		t.Fatal("nil pressure must report Normal")
	}
}

// A tiered arena under a pressure ladder spills only when the ladder says
// so, and spilling brings residency back down.
func TestTierPressureDrivenSpill(t *testing.T) {
	store := newMapStore()
	p := NewPressure(40 << 10)
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, Pressure: p, KeyPrefix: "p"})
	for i := 0; i < 4000; i++ {
		a.Append(tupleFor(i))
	}
	st := a.TierStats()
	if st.SpilledSegments == 0 {
		t.Fatalf("pressure never triggered spilling: %+v (pressure %+v)", st, p.Stats())
	}
	if p.SpilledBytes() == 0 {
		t.Fatal("ladder did not observe spilled bytes")
	}
	a.ReleaseTier()
	if p.ResidentBytes() != 0 {
		t.Fatalf("ReleaseTier left %dB charged", p.ResidentBytes())
	}
}

// spillAll evicts every sealed segment of a laddered arena: another gauge
// charges the whole cap, so each maintenance step evicts the coldest
// resident segment. The ladder is left at PressureReject.
func spillAll(t testing.TB, a *Arena, p *Pressure) *PressureGauge {
	t.Helper()
	other := p.Gauge()
	other.set(p.Cap(), 0, 0)
	for i := 0; i < 4*a.SealedSegments() && a.TierStats().SpilledSegments < a.SealedSegments(); i++ {
		a.Maintain()
	}
	if st := a.TierStats(); st.SpilledSegments != st.SealedSegments || st.CachedSegments != 0 {
		t.Fatalf("segments still resident after spilling: %+v", st)
	}
	return other
}

// A segment that spilled under pressure is faulted in once when read again
// while the ladder has room, and then stays resident: residency is bounded
// by the ladder, not by a fault-in cache.
func TestTierFaultedSegmentStaysResident(t *testing.T) {
	store := newMapStore()
	p := NewPressure(1 << 20)
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, Pressure: p, KeyPrefix: "r"})
	const n = 640 // ten sealed segments
	for i := 0; i < n; i++ {
		a.Append(tupleFor(i))
	}
	other := spillAll(t, a, p)
	other.set(0, 0, 0) // the other arena drains: the ladder has room again
	if p.Stage() != PressureNormal {
		t.Fatalf("stage %v with %dB of %dB resident", p.Stage(), p.ResidentBytes(), p.Cap())
	}
	faults0, puts0 := a.TierStats().Faults, store.puts
	for k := 0; k < 50; k++ {
		for i := 0; i < n; i += 7 {
			if got := a.Decode(Ref(i)); fmt.Sprint(got) != fmt.Sprint(tupleFor(i)) {
				t.Fatalf("row %d diverges after fault-in: %v", i, got)
			}
		}
	}
	st := a.TierStats()
	if f := st.Faults - faults0; f != int64(st.SealedSegments) {
		t.Fatalf("%d faults over %d spilled segments read 50 times each, want one per segment", f, st.SealedSegments)
	}
	if st.CachedSegments != st.SealedSegments {
		t.Fatalf("%d of %d faulted-in segments stayed resident", st.CachedSegments, st.SealedSegments)
	}
	if store.puts != puts0 {
		t.Fatalf("reads wrote %d segments to the store", store.puts-puts0)
	}
}

// A fault storm over far more segments than fit under the cap never pushes
// peak residency past the cap. Eviction is coldest-first: a dirty segment
// is spilled once, and once every segment has a spill copy, evictions only
// drop clean segments — the store is never written again.
func TestTierFaultStormStaysUnderCap(t *testing.T) {
	store := newMapStore()
	p := NewPressure(64 << 10)
	a := New()
	a.EnableTier(TierConfig{SegmentRows: 64, Store: store, Pressure: p, KeyPrefix: "s"})
	const n = 64 * 64
	for i := 0; i < n; i++ {
		a.Append(tupleFor(i))
	}
	st := a.TierStats()
	if st.SpilledSegments == 0 || st.SpilledSegments == st.SealedSegments {
		t.Fatalf("want some segments spilled and some dirty-resident after loading: %+v", st)
	}
	rng := rand.New(rand.NewSource(3))
	storm := func(reads int) {
		for k := 0; k < reads; k++ {
			i := rng.Intn(n)
			if got := a.Decode(Ref(i)); fmt.Sprint(got) != fmt.Sprint(tupleFor(i)) {
				t.Fatalf("row %d diverges in the storm: %v", i, got)
			}
		}
	}
	storm(20000)
	st = a.TierStats()
	if st.Faults < int64(st.SealedSegments) {
		t.Fatalf("only %d faults: the storm did not exceed the pool", st.Faults)
	}
	if len(store.m) != store.puts || int64(store.puts) != st.Spills {
		t.Fatalf("%d puts for %d keys (%d spills): a segment was spilled twice", store.puts, len(store.m), st.Spills)
	}
	// Spill every remaining dirty segment; from here on every eviction is
	// of a clean segment and must be a drop.
	for i := 0; i < 4*st.SealedSegments && a.TierStats().SpilledSegments < st.SealedSegments; i++ {
		a.Maintain()
	}
	faults0, puts0 := a.TierStats().Faults, store.puts
	storm(20000)
	st = a.TierStats()
	if st.Faults == faults0 {
		t.Fatal("second storm faulted nothing in")
	}
	if store.puts != puts0 {
		t.Fatalf("evicting clean segments wrote %d blobs", store.puts-puts0)
	}
	if peak := p.PeakResidentBytes(); peak > p.Cap() {
		t.Fatalf("peak resident %dB exceeds the %dB cap", peak, p.Cap())
	}
	if st.SpillErrors != 0 || st.Quarantined != 0 {
		t.Fatalf("storm stats: %+v", st)
	}
}

// Faulting a spilled segment in allocates nothing once the arena is warm:
// the blob is verified in place and the pool links are intrusive.
func TestTierFaultInAllocFree(t *testing.T) {
	for _, laddered := range []bool{false, true} {
		t.Run(fmt.Sprintf("ladder=%v", laddered), func(t *testing.T) {
			store := newMapStore()
			cfg := TierConfig{SegmentRows: 64, Store: store, CacheSegments: 1, KeyPrefix: "z"}
			var p *Pressure
			if laddered {
				p = NewPressure(1 << 20)
				cfg.Pressure = p
			}
			a := New()
			a.EnableTier(cfg)
			for i := 0; i < 3*64; i++ {
				a.Append(tupleFor(i))
			}
			if laddered {
				spillAll(t, a, p) // leaves the ladder at Reject: every fault evicts
			}
			a.RowBytes(0)
			a.RowBytes(64)
			faults0 := a.TierStats().Faults
			allocs := testing.AllocsPerRun(100, func() {
				a.RowBytes(0)
				a.RowBytes(64)
			})
			if f := a.TierStats().Faults - faults0; f < 200 {
				t.Fatalf("%d faults in 101 alternating read pairs: reads were served resident", f)
			}
			if allocs != 0 {
				t.Fatalf("fault-in allocates %.1f times per read pair", allocs)
			}
		})
	}
}

var benchRow []byte

// BenchmarkTierFaultIn faults one spilled segment in per op, evicting the
// previous one. Every size cycles over the same 16 segments, so the bytes
// touched per op are the same and ns/op must not grow with the number of
// sealed segments: neither admission nor eviction scans them.
func BenchmarkTierFaultIn(b *testing.B) {
	for _, segs := range []int{64, 4096} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			p := NewPressure(1 << 20)
			a := New()
			a.EnableTier(TierConfig{SegmentRows: 64, Store: newMapStore(), Pressure: p, KeyPrefix: "b"})
			row := wire.Encode(nil, types.Tuple{types.Int(7), types.Str("fault-in benchmark row")})
			for i := 0; i < segs*64; i++ {
				a.AppendEncoded(row)
			}
			spillAll(b, a, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchRow = a.RowBytes(Ref(i % 16 * 64))
			}
		})
	}
}
