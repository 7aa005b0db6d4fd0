package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/enginetest"
	"squall/internal/expr"
	"squall/internal/recovery"
	"squall/internal/slab"
	"squall/internal/types"
)

// benchFileSpill is where `-json spill` records the PR 10 numbers.
const benchFileSpill = "BENCH_PR10.json"

// spillRun is one configuration's measurement of the same 2-way join.
type spillRun struct {
	Name      string  `json:"name"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Rows      int64   `json:"result_rows"`
	// PeakResidentKB is the pressure ladder's high-water resident total —
	// the number the under-cap gate checks (0 when the run had no ladder).
	// SpilledKB is the high-water on-disk total (current totals read zero
	// after run end, when finished tasks refund their charges).
	PeakResidentKB float64 `json:"peak_resident_kb,omitempty"`
	SpilledKB      float64 `json:"peak_spilled_kb,omitempty"`
	Spills         int64   `json:"spills,omitempty"`
	SegmentFaults  int64   `json:"segment_faults,omitempty"`
	ThrottleEvents int64   `json:"throttle_events,omitempty"`
	Checkpoints    int64   `json:"checkpoints,omitempty"`
	CheckpointKB   float64 `json:"checkpoint_kb,omitempty"`
	// SegmentRestoredKB counts sealed-segment blobs read back during a
	// post-fault restore (corrupt run only).
	SegmentRestoredKB float64 `json:"segment_restored_kb,omitempty"`
	RecoveredFaults   int64   `json:"recovered_faults,omitempty"`
}

type spillReport struct {
	PR        int    `json:"pr"`
	Benchmark string `json:"benchmark"`
	RTuples   int    `json:"r_tuples"`
	STuples   int    `json:"s_tuples"`
	Machines  int    `json:"machines"`
	// CapKB is the resident budget of the capped run: half the tiered
	// uncapped run's peak residency.
	CapKB    float64  `json:"cap_kb"`
	Untiered spillRun `json:"untiered_baseline"`
	Uncapped spillRun `json:"tiered_uncapped"`
	Capped   spillRun `json:"tiered_capped"`
	CkptFull spillRun `json:"checkpoint_full"`
	CkptIncr spillRun `json:"checkpoint_incremental"`
	Corrupt  spillRun `json:"corrupt_segment_recovery"`
	// SpillBagEqual: every tiered/capped/recovered run produced the exact
	// result bag of the untiered baseline (the hard gate; the bench exits
	// non-zero when it fails).
	SpillBagEqual bool `json:"spill_bag_equal"`
	// CorruptRecovered: the deliberately corrupted spill segment was caught
	// by its CRC, quarantined, and the task restored through the recovery
	// plane exactly-once (bag-equal, >= 1 fault).
	CorruptRecovered bool `json:"corrupt_segment_recovered"`
	// CappedThroughputRatio is capped elapsed relative to uncapped-tiered
	// elapsed, inverted so higher is better (1.0 = spilling was free). How
	// often probes fault spilled segments back in is scheduling-dependent,
	// so this ratio swings well past the compare tolerance run to run; it
	// is reported for the trajectory and gated in-binary with an absolute
	// floor instead (a capped run slower than 10x uncapped means
	// degradation stopped being graceful).
	CappedThroughputRatio float64 `json:"capped_throughput_ratio"`
	// CkptReduction is full-checkpoint bytes over incremental-checkpoint
	// bytes for the identical run: how much manifest traffic sealed-segment
	// references save once a checkpoint only re-exports the hot region. The
	// incremental side counts hot-region bytes at each checkpoint instant,
	// which depends on how the two sources' arrivals interleave, so both
	// checkpoint runs load R completely before S starts. Gated in-binary
	// with an absolute floor (>= 4x) and by compare against the smoke
	// baseline.
	CkptReduction float64 `json:"ckpt_bytes_reduction_x"`
}

// corruptingStore wraps a segment store and flips one byte in the Nth spill
// ("sp-") write — the checkpoint ("ck-") domain stays clean, modeling media
// corruption on the spill device while the durable copy survives. It records
// the victim key and whether the tier later quarantined it (observed as the
// best-effort DeleteSegment of that key).
type corruptingStore struct {
	inner slab.SegmentStore

	mu          sync.Mutex
	target      int    // corrupt the target'th sp- put
	puts        int    // sp- puts seen
	victim      string // corrupted key ("" until the target put arrives)
	quarantined bool   // tier deleted the corrupted key after the CRC failed
}

func (c *corruptingStore) PutSegment(key string, blob []byte) error {
	if strings.HasPrefix(key, "sp-") {
		c.mu.Lock()
		c.puts++
		if c.puts == c.target && c.victim == "" {
			c.victim = key
			bad := append([]byte(nil), blob...)
			bad[len(bad)/2] ^= 0x40
			blob = bad
		}
		c.mu.Unlock()
	}
	return c.inner.PutSegment(key, blob)
}

func (c *corruptingStore) GetSegment(key string) ([]byte, bool, error) {
	return c.inner.GetSegment(key)
}

func (c *corruptingStore) DeleteSegment(key string) error {
	c.mu.Lock()
	if key != "" && key == c.victim {
		c.quarantined = true
	}
	c.mu.Unlock()
	return c.inner.DeleteSegment(key)
}

// spillTuple pads each row so segments carry realistic payload bytes.
func spillTuple(key int64, i int) types.Tuple {
	return types.Tuple{
		types.Int(key),
		types.Int(int64(i)),
		types.Str("spill-bench-payload-0123456789abcdefghijklmnopqrstuvwxyz-0123456789"),
	}
}

// spillBench is the PR 10 experiment: memory-pressure survival made
// measurable. The same 2-way hash-hypercube join runs (a) untiered, (b)
// tiered with an effectively infinite cap — measuring the tier's bookkeeping
// and true peak residency, (c) tiered with the cap at 50% of that peak — the
// degradation ladder must keep residency under the cap by sealing and
// spilling cold segments while the result stays bag-equal, (d) twice under
// checkpointing, full vs incremental manifests, and (e) with one spilled
// segment deliberately corrupted — the CRC must catch it, quarantine the
// segment and restore the task through the recovery plane exactly-once.
// Gates (CI smoke): every run bag-equal to the untiered baseline, capped
// peak residency under the cap, incremental checkpoints strictly smaller
// than full ones, and the corrupted segment quarantined + recovered.
func spillBench() {
	nR, nS := 48_000, 48_000
	if *smoke {
		nR, nS = 14_000, 14_000
	}
	domain := int64(nR / 4)
	const machines = 4
	const segRows = 256
	header(fmt.Sprintf("Memory-pressure survival: tiered state under a 50%% cap (R=%d, S=%d, %dJ)", nR, nS, machines))

	rRows := make([]types.Tuple, nR)
	for i := range rRows {
		rRows[i] = spillTuple(int64(i)%domain, i)
	}
	sRows := make([]types.Tuple, nS)
	for i := range sRows {
		sRows[i] = spillTuple(int64(i*7)%domain, i)
	}
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	// rFirst holds S until R has loaded (the checkpoint runs).
	mkQuery := func(rFirst bool) *squall.JoinQuery {
		rSpout, sSpout := dataflow.SliceSpout(rRows), dataflow.SliceSpout(sRows)
		if rFirst {
			rSpout, sSpout = enginetest.DrainBefore(rSpout, sSpout)
		}
		return &squall.JoinQuery{
			Graph:    g,
			Scheme:   squall.HashHypercube,
			Machines: machines,
			Local:    squall.Traditional,
			Sources: []squall.Source{
				{Name: "R", Spout: rSpout, Size: int64(nR)},
				{Name: "S", Spout: sSpout, Size: int64(nS)},
			},
		}
	}

	spillRoot, err := os.MkdirTemp("", "squall-spill-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "spill: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(spillRoot)
	dirs := 0

	runOnce := func(name string, rFirst bool, opts squall.Options) (spillRun, *squall.Result) {
		// Shallow inboxes keep the spouts backpressure-sensitive, so the
		// ladder's throttle stage actually reaches them.
		opts.Seed = 17
		opts.ChannelBuf = 8
		res, err := mkQuery(rFirst).Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spill: %s: %v\n", name, err)
			os.Exit(1)
		}
		r := spillRun{
			Name:      name,
			ElapsedMS: float64(res.Metrics.Elapsed.Microseconds()) / 1000,
			Rows:      res.RowCount,
		}
		if p := res.Pressure; p != nil {
			r.PeakResidentKB = float64(p.PeakResident) / 1024
			r.SpilledKB = float64(p.PeakSpilled) / 1024
			r.Spills = p.Spills
			r.SegmentFaults = p.SegmentFaults
			r.ThrottleEvents = p.ThrottleEvents
		}
		rm := &res.Metrics.Recovery
		r.Checkpoints = rm.Checkpoints.Load()
		r.CheckpointKB = float64(rm.CheckpointBytes.Load()) / 1024
		r.SegmentRestoredKB = float64(rm.SegmentBytes.Load()) / 1024
		r.RecoveredFaults = rm.Faults.Load()
		return r, res
	}

	// Best-of-reps on the two timed configurations; every rep must produce
	// the identical bag (elapsed is minimized, counters come from the first
	// rep — they are deterministic given the seed).
	const reps = 3
	measure := func(name string, mkOpts func() squall.Options) (spillRun, uint64) {
		best, res := runOnce(name, false, mkOpts())
		bag := bagHash(res.Rows)
		for i := 1; i < reps; i++ {
			r, rres := runOnce(name, false, mkOpts())
			if bagHash(rres.Rows) != bag || r.Rows != best.Rows {
				fmt.Fprintf(os.Stderr, "spill: %s: nondeterministic result bag across reps\n", name)
				os.Exit(1)
			}
			if r.ElapsedMS < best.ElapsedMS {
				best.ElapsedMS = r.ElapsedMS
			}
		}
		return best, bag
	}
	spillDir := func() string {
		dirs++
		d := fmt.Sprintf("%s/run%d", spillRoot, dirs)
		if err := os.Mkdir(d, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "spill: %v\n", err)
			os.Exit(1)
		}
		return d
	}

	// (a) Untiered baseline: the bag oracle and the no-tier elapsed.
	base, baseBag := measure("untiered", func() squall.Options {
		return squall.Options{}
	})

	// (b) Tiered, effectively uncapped: the ladder never leaves Normal, so
	// nothing spills — its PeakResident is the join's true arena residency,
	// which sets the cap for (c).
	uncapped, uncappedBag := measure("tiered-uncapped", func() squall.Options {
		return squall.Options{Tier: &squall.TierOptions{
			SegmentRows: segRows, MemCapBytes: 1 << 40,
		}}
	})
	capBytes := int64(uncapped.PeakResidentKB*1024) / 2

	// (c) Tiered with the cap at 50% of that peak, spilling to real files:
	// the run must finish bag-equal with peak residency under the cap.
	capped, cappedBag := measure("tiered-capped", func() squall.Options {
		return squall.Options{Tier: &squall.TierOptions{
			SegmentRows: segRows, MemCapBytes: capBytes, SpillDir: spillDir(),
		}}
	})

	// (d) Checkpointing, full vs incremental: identical runs and cadence;
	// the tiered one's manifests reference sealed segments already persisted
	// at spill time instead of re-exporting every row. R loads before S in
	// both, so each checkpoint instant sees the same state.
	ckEvery := nR / 8
	ckFull, ckFullRes := runOnce("ckpt-full", true, squall.Options{
		Recovery: &squall.RecoveryOptions{CheckpointEvery: ckEvery},
	})
	ckFullBag := bagHash(ckFullRes.Rows)
	ckIncr, ckIncrRes := runOnce("ckpt-incremental", true, squall.Options{
		Recovery: &squall.RecoveryOptions{CheckpointEvery: ckEvery},
		Tier:     &squall.TierOptions{SegmentRows: segRows},
	})
	ckIncrBag := bagHash(ckIncrRes.Rows)

	// (e) Corruption: flip one byte in one spill write (the checkpoint copy
	// stays clean). The next fault-in must fail the CRC, quarantine the
	// segment and panic into the recovery plane, which restores the task
	// from the clean incremental checkpoint and replays — exactly-once.
	// Target a mid-run spill write: late enough that a checkpoint (with
	// segment references) precedes the fault, so the restore reads sealed
	// segments back instead of degenerating to replay-only.
	cs := &corruptingStore{inner: recovery.NewMemStore(), target: 48}
	corrupt, corruptRes := runOnce("corrupt-spill", false, squall.Options{
		Recovery: &squall.RecoveryOptions{CheckpointEvery: ckEvery / 4, DisablePeer: true},
		Tier:     &squall.TierOptions{SegmentRows: segRows, Store: cs},
	})
	corruptBag := bagHash(corruptRes.Rows)

	report := spillReport{
		PR: 10,
		Benchmark: fmt.Sprintf("tiered joiner state under a 50%% resident cap on a hash-hypercube 2-way join (%d+%d tuples, %dJ)",
			nR, nS, machines),
		RTuples: nR, STuples: nS, Machines: machines,
		CapKB:    float64(capBytes) / 1024,
		Untiered: base, Uncapped: uncapped, Capped: capped,
		CkptFull: ckFull, CkptIncr: ckIncr, Corrupt: corrupt,
		CappedThroughputRatio: uncapped.ElapsedMS / capped.ElapsedMS,
		CkptReduction:         ckFull.CheckpointKB / ckIncr.CheckpointKB,
	}

	fmt.Printf("  %-18s %10s %12s %12s %10s %8s %8s %10s\n",
		"run", "elapsed", "rows", "peak-res", "spilled", "spills", "faults", "ckpt-kb")
	for _, r := range []spillRun{base, uncapped, capped, ckFull, ckIncr, corrupt} {
		peak, spilled := "-", "-"
		if r.PeakResidentKB > 0 {
			peak = fmt.Sprintf("%.0fKB", r.PeakResidentKB)
		}
		if r.Spills > 0 {
			spilled = fmt.Sprintf("%.0fKB", r.SpilledKB)
		}
		ck := "-"
		if r.Checkpoints > 0 {
			ck = fmt.Sprintf("%.1f", r.CheckpointKB)
		}
		fmt.Printf("  %-18s %9.1fms %12d %12s %10s %8d %8d %10s\n",
			r.Name, r.ElapsedMS, r.Rows, peak, spilled, r.Spills, r.SegmentFaults, ck)
	}
	fmt.Printf("  cap %0.fKB (50%% of uncapped peak %.0fKB); capped peak %.0fKB, %d spills, %d fault-ins, %d throttle events\n",
		report.CapKB, uncapped.PeakResidentKB, capped.PeakResidentKB, capped.Spills, capped.SegmentFaults, capped.ThrottleEvents)
	fmt.Printf("  capped run at %.2fx uncapped throughput; incremental checkpoints %.1fx smaller (%.1fKB vs %.1fKB over %d ckpts)\n",
		report.CappedThroughputRatio, report.CkptReduction, ckIncr.CheckpointKB, ckFull.CheckpointKB, ckFull.Checkpoints)
	fmt.Printf("  corrupt spill segment: quarantined=%v faults=%d restored=%.0fKB from segments\n",
		cs.quarantined, corrupt.RecoveredFaults, corrupt.SegmentRestoredKB)

	ok := true
	bagEqual := baseBag == uncappedBag && baseBag == cappedBag &&
		baseBag == ckFullBag && baseBag == ckIncrBag && baseBag == corruptBag &&
		base.Rows == uncapped.Rows && base.Rows == capped.Rows &&
		base.Rows == ckFull.Rows && base.Rows == ckIncr.Rows && base.Rows == corrupt.Rows
	report.SpillBagEqual = bagEqual
	if !bagEqual {
		fmt.Fprintf(os.Stderr, "  FAIL: tiered/capped/recovered runs are not bag-equal to the untiered baseline\n")
		ok = false
	}
	if capped.PeakResidentKB*1024 > float64(capBytes) {
		fmt.Fprintf(os.Stderr, "  FAIL: capped run peaked at %.0fKB resident, over the %.0fKB cap\n",
			capped.PeakResidentKB, report.CapKB)
		ok = false
	}
	if capped.Spills == 0 || capped.SpilledKB == 0 {
		fmt.Fprintf(os.Stderr, "  FAIL: capped run never spilled — the cap was not exercised\n")
		ok = false
	}
	if report.CappedThroughputRatio < 0.1 {
		fmt.Fprintf(os.Stderr, "  FAIL: capped run ran %.1fx slower than uncapped — degradation is no longer graceful\n",
			1/report.CappedThroughputRatio)
		ok = false
	}
	if ckFull.Checkpoints == 0 || ckIncr.Checkpoints == 0 {
		fmt.Fprintf(os.Stderr, "  FAIL: checkpoint runs took no checkpoints (full=%d incremental=%d)\n",
			ckFull.Checkpoints, ckIncr.Checkpoints)
		ok = false
	}
	if report.CkptReduction < 4 {
		fmt.Fprintf(os.Stderr, "  FAIL: incremental checkpoints only %.1fx smaller than full (%.1fKB vs %.1fKB), want >= 4x\n",
			report.CkptReduction, ckIncr.CheckpointKB, ckFull.CheckpointKB)
		ok = false
	}
	report.CorruptRecovered = cs.quarantined && corrupt.RecoveredFaults >= 1 && baseBag == corruptBag
	if cs.victim == "" {
		fmt.Fprintf(os.Stderr, "  FAIL: corruption run never reached %d spill writes\n", cs.target)
		ok = false
	}
	if !cs.quarantined {
		fmt.Fprintf(os.Stderr, "  FAIL: corrupted segment %q was never quarantined — bad bytes may have been decoded\n", cs.victim)
		ok = false
	}
	if corrupt.RecoveredFaults < 1 {
		fmt.Fprintf(os.Stderr, "  FAIL: corruption fired %d recoveries, want >= 1\n", corrupt.RecoveredFaults)
		ok = false
	}
	if corrupt.SegmentRestoredKB == 0 {
		fmt.Fprintf(os.Stderr, "  FAIL: the post-corruption restore read no sealed segments back — the incremental-checkpoint restore path was not exercised\n")
		ok = false
	}
	if !ok {
		os.Exit(1)
	}

	if *jsonOut {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(benchFileSpill, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", benchFileSpill, err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s\n", benchFileSpill)
	}
}
