package enginetest

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"squall"
	"squall/internal/expr"
	"squall/internal/recovery"
)

var (
	allSchemes = []squall.SchemeKind{squall.HashHypercube, squall.RandomHypercube, squall.HybridHypercube}
	allLocals  = []squall.LocalJoinKind{squall.Traditional, squall.DBToaster}
	allBatches = []int{1, 3, 64}
)

// spillStore is the in-process segment store of a tiered (Spill) cell. It
// counts reads: every tier spills eagerly there, so each read is one
// segment fault-in.
type spillStore struct {
	*recovery.MemStore
	faults atomic.Int64
}

func (s *spillStore) GetSegment(key string) ([]byte, bool, error) {
	s.faults.Add(1)
	return s.MemStore.GetSegment(key)
}

// variant is a run setting the differential matrix crosses with
// EngineConfig points: apply (nil for none) edits the planned options, and
// the cell is named ec.name(exec)+suffix.
type variant struct {
	exec, suffix string
	apply        func(*squall.Options)
}

// cell names one configuration run under v.
func (v variant) cell(ec EngineConfig) string { return ec.name(v.exec) + v.suffix }

// plan is Workload.Plan with v applied.
func (v variant) plan(w *Workload, ec EngineConfig) (*squall.JoinQuery, squall.Options) {
	q, opts := w.Plan(ec)
	if v.apply != nil {
		v.apply(&opts)
	}
	return q, opts
}

var (
	plain = variant{exec: "vec"}
	// boxed runs the boxed operator pipeline, which NoSerialize runs take:
	// boxed spouts, the join and aggregation bolts' tuple faces, and tuple
	// batches handed over without a wire hop.
	boxed = variant{exec: "boxed", apply: func(o *squall.Options) { o.NoSerialize = true }}
	// twoSources gives every source two tasks, so each consumer merges two
	// producers per stream: interleaved frames, per-producer replay cursors
	// under a kill, and two live producers per adaptive edge.
	twoSources = variant{exec: "vec", suffix: "/sources=2", apply: func(o *squall.Options) { o.SourcePar = 2 }}

	allVariants = []variant{plain, boxed, twoSources}
)

// runCell runs one configuration and returns its result bag. A tiered
// (Spill) cell must move state through its spill store: runCell fails it
// when no sealed segment reached the store, and returns how many spilled
// segments were faulted back in.
func runCell(w *Workload, ec EngineConfig, v variant) (map[string]int, *squall.Result, int64, error) {
	q, opts := v.plan(w, ec)
	var ss *spillStore
	if ec.Spill {
		ss = &spillStore{MemStore: recovery.NewMemStore()}
		opts.Tier.Store = ss
	}
	res, err := q.Run(opts)
	if err != nil {
		return nil, nil, 0, err
	}
	bag := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		bag[r.Key()]++
	}
	var faults int64
	if ss != nil {
		if ss.Bytes() == 0 {
			return nil, nil, 0, fmt.Errorf("no sealed segment reached the spill store")
		}
		faults = ss.faults.Load()
	}
	return bag, res, faults, nil
}

// TestDifferentialAllConfigs is the harness proper: randomized workloads
// through every (scheme x local join x batch size x adaptive on/off x
// resident/tiered state) combination, each also run boxed and with two
// tasks per source (adaptive ones at one batch point), bag-compared against
// the nested-loop oracle. Seeds are logged so any failure reproduces by
// pinning the seed.
func TestDifferentialAllConfigs(t *testing.T) {
	cases := []struct {
		name               string
		seed               int64
		rels, rows, domain int
		theta              bool
	}{
		{"2way-equi", 11, 2, 200, 25, false},
		{"2way-theta", 12, 2, 200, 20, true},
		{"3way-chain", 13, 3, 60, 10, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Logf("workload seed=%d rels=%d rows=%d domain=%d theta=%v", c.seed, c.rels, c.rows, c.domain, c.theta)
			w := RandomWorkload(c.seed, c.rels, c.rows, c.domain, c.theta)
			ref := w.ReferenceBag()
			if len(ref) == 0 {
				t.Fatalf("degenerate workload: oracle produced no rows")
			}
			for _, scheme := range allSchemes {
				for _, local := range allLocals {
					for _, batch := range allBatches {
						for _, adaptive := range []bool{false, true} {
							if adaptive && c.rels != 2 {
								continue // the adaptive 1-Bucket operator is 2-way
							}
							for _, spill := range []bool{false, true} {
								if spill && c.rels != 2 {
									// The state dimension: resident slab
									// arenas, then tiered ones. The 60-row
									// 3-way relations never fill a 64-row
									// segment, so tiering would be a no-op
									// there; TestDifferentialSpill's larger
									// 3-way chain covers that shape.
									continue
								}
								// Tiered cells run on two machines so every
								// joiner task holds enough rows per relation
								// to seal (and so spill) segments.
								machines := 6
								if spill {
									machines = 2
								}
								ec := EngineConfig{
									Scheme: scheme, Local: local, BatchSize: batch,
									Adaptive: adaptive, Spill: spill, Machines: machines, Seed: c.seed,
								}
								for _, v := range allVariants {
									if v.apply != nil && adaptive && batch != allBatches[0] {
										// Adaptive sources are boxed on every
										// path: one batch point covers the
										// variants' corner there.
										continue
									}
									name := v.cell(ec)
									t.Run(name, func(t *testing.T) {
										got, res, faults, err := runCell(w, ec, v)
										if err != nil {
											t.Fatalf("seed=%d %s: %v", c.seed, name, err)
										}
										if spill && faults == 0 {
											t.Fatalf("seed=%d %s: no spilled segment was faulted back in", c.seed, name)
										}
										if diff := DiffBags(ref, got); diff != "" {
											t.Fatalf("seed=%d %s: engine diverges from oracle:\n%s", c.seed, name, diff)
										}
										vecRows := res.Metrics.TotalVecRows()
										switch {
										case v.exec == boxed.exec && vecRows != 0:
											t.Fatalf("seed=%d %s: %d rows through frame execution on a boxed run", c.seed, name, vecRows)
										case v.exec != boxed.exec && !adaptive && vecRows == 0:
											// Every packed frame carries a
											// footer, one-row frames included;
											// only the adaptive joiner walks
											// frames per row for the reshape
											// protocol's bookkeeping.
											t.Fatalf("seed=%d %s: run carried no rows through frame execution", c.seed, name)
										}
									})
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestDifferentialAggViews closes the aggregate-view carve-out: the
// DBToaster aggregate views (AggJoin in the joiners plus the merge bolt) run
// a grouped COUNT and SUM over a 3-way chain through every hypercube scheme,
// packed and boxed execution (the boxed path is the one NoSerialize runs
// take) and one-row vs batched transport, and every group must match the
// nested-loop oracle: counts exactly, sums to 1e-9 relative.
func TestDifferentialAggViews(t *testing.T) {
	const seed = 17
	w := RandomWorkload(seed, 3, 100, 10, false)
	group := []squall.ColRef{{Rel: 0, E: expr.C(1)}, {Rel: 2, E: expr.C(1)}}
	aggs := []*squall.AggSpec{
		{GroupBy: group, Kind: squall.Count},
		{GroupBy: group, Kind: squall.Sum, Sum: &squall.ColRef{Rel: 1, E: expr.C(1)}},
	}
	for _, agg := range aggs {
		ref := w.ReferenceAgg(agg)
		if len(ref) < 10 {
			t.Fatalf("degenerate workload: oracle produced %d groups", len(ref))
		}
		for _, scheme := range allSchemes {
			for _, batch := range []int{1, 0} {
				for _, v := range []variant{plain, boxed} {
					ec := EngineConfig{Scheme: scheme, Local: squall.DBToaster, BatchSize: batch,
						Machines: 6, Seed: seed}
					t.Run(fmt.Sprintf("%v/%s", agg.Kind, v.cell(ec)), func(t *testing.T) {
						q, opts := v.plan(w, ec)
						got, res, err := RunAgg(q, opts, agg)
						if err != nil {
							t.Fatalf("seed=%d %v: %v", seed, ec, err)
						}
						if res.Metrics.Component("merge") == nil {
							t.Fatalf("%v: the plan did not run aggregate views", ec)
						}
						if len(got) != len(ref) {
							t.Fatalf("%v: %d groups, oracle has %d", ec, len(got), len(ref))
						}
						for k, want := range ref {
							g, ok := got[k]
							switch {
							case !ok:
								t.Fatalf("%v: group %q missing", ec, k)
							case agg.Kind == squall.Count && g.Cnt != want.Cnt:
								t.Fatalf("%v: group %q: COUNT %d, oracle %d", ec, k, g.Cnt, want.Cnt)
							case agg.Kind == squall.Sum && math.Abs(g.Sum-want.Sum) > 1e-9*math.Abs(want.Sum):
								t.Fatalf("%v: group %q: SUM %g, oracle %g", ec, k, g.Sum, want.Sum)
							}
						}
					})
				}
			}
		}
	}
}

// TestDifferentialSpill is the tiered-state acceptance matrix (PR 10): the
// same workloads run with joiner arenas sealing 64-row checksummed segments
// and spilling every sealed segment, so probes continually fault state back
// in through the CRC-verified read path. Each configuration must stay
// bag-equal to the oracle — with a mid-run task kill on top, recovery runs
// through incremental (segment-referencing) checkpoints.
func TestDifferentialSpill(t *testing.T) {
	cases := []struct {
		name               string
		seed               int64
		rels, rows, domain int
		theta              bool
	}{
		{"2way-equi", 31, 2, 400, 25, false},
		{"3way-chain", 32, 3, 150, 10, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Logf("workload seed=%d rels=%d rows=%d domain=%d theta=%v", c.seed, c.rels, c.rows, c.domain, c.theta)
			w := RandomWorkload(c.seed, c.rels, c.rows, c.domain, c.theta)
			ref := w.ReferenceBag()
			if len(ref) == 0 {
				t.Fatalf("degenerate workload: oracle produced no rows")
			}
			for _, local := range allLocals {
				for _, batch := range []int{1, 64} {
					for _, kill := range []bool{false, true} {
						// Two machines keep per-task state large enough to
						// seal segments (sealing needs 64 rows per arena).
						ec := EngineConfig{
							Scheme: squall.HashHypercube, Local: local, BatchSize: batch,
							Spill: true, Kill: kill, Machines: 2, Seed: c.seed,
						}
						t.Run(ec.String(), func(t *testing.T) {
							got, _, faults, err := runCell(w, ec, plain)
							if err != nil {
								t.Fatalf("seed=%d %v: %v", c.seed, ec, err)
							}
							if faults == 0 {
								t.Fatalf("seed=%d %v: no spilled segment was faulted back in", c.seed, ec)
							}
							if diff := DiffBags(ref, got); diff != "" {
								t.Fatalf("seed=%d %v: engine diverges from oracle:\n%s", c.seed, ec, diff)
							}
						})
					}
				}
			}
		})
	}
}

// TestSpillActuallySpills pins the dimension's premise: with the spill knobs
// on, sealed segments really do land in the segment store (a regression
// here would quietly turn TestDifferentialSpill into a plain slab run).
func TestSpillActuallySpills(t *testing.T) {
	w := RandomWorkload(33, 2, 400, 25, false)
	ref := w.ReferenceBag()
	q, opts := w.Plan(EngineConfig{
		Scheme: squall.HashHypercube, Local: squall.Traditional, BatchSize: 64,
		Spill: true, Machines: 2, Seed: 33,
	})
	ms := recovery.NewMemStore()
	opts.Tier.Store = ms
	res, err := q.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		got[r.Key()]++
	}
	if diff := DiffBags(ref, got); diff != "" {
		t.Fatalf("engine diverges from oracle:\n%s", diff)
	}
	if ms.Bytes() == 0 {
		t.Fatalf("no sealed segments reached the spill store; the spill dimension is not exercising the tier")
	}
}

// TestDifferentialChaosKill is the fault-tolerance acceptance matrix: every
// (scheme x local join x batch x adaptive x resident/tiered state)
// configuration, plus the boxed and two-source variants at batch 64 on
// resident state, runs with one joiner task killed at a seeded point and
// must stay bag-equal to the nested-loop oracle — the kill is recovered
// live (peer refetch where the scheme replicates, checkpoint + replay
// elsewhere), never surfaced as an error.
func TestDifferentialChaosKill(t *testing.T) {
	cases := []struct {
		name               string
		seed               int64
		rels, rows, domain int
		theta              bool
	}{
		{"2way-equi", 31, 2, 220, 25, false},
		{"2way-theta", 32, 2, 200, 20, true},
		{"3way-chain", 33, 3, 60, 10, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Logf("workload seed=%d rels=%d rows=%d domain=%d theta=%v", c.seed, c.rels, c.rows, c.domain, c.theta)
			w := RandomWorkload(c.seed, c.rels, c.rows, c.domain, c.theta)
			ref := w.ReferenceBag()
			if len(ref) == 0 {
				t.Fatalf("degenerate workload: oracle produced no rows")
			}
			for _, scheme := range allSchemes {
				for _, local := range allLocals {
					for _, batch := range allBatches {
						for _, adaptive := range []bool{false, true} {
							if adaptive && c.rels != 2 {
								continue // the adaptive 1-Bucket operator is 2-way
							}
							for _, spill := range []bool{false, true} {
								if spill && c.rels != 2 {
									// Tiered state under chaos (checkpoints
									// reference sealed segments): 2-way
									// workloads only, as in
									// TestDifferentialAllConfigs, at every
									// batch point.
									continue
								}
								machines := 6
								if spill {
									machines = 2
								}
								ec := EngineConfig{
									Scheme: scheme, Local: local, BatchSize: batch,
									Adaptive: adaptive, Kill: true, Spill: spill, Machines: machines, Seed: c.seed,
								}
								for _, v := range allVariants {
									if v.apply != nil && (spill || batch != allBatches[2]) {
										// The variants' kill corners run at
										// one batch point on resident state.
										continue
									}
									name := v.cell(ec)
									t.Run(name, func(t *testing.T) {
										got, res, faults, err := runCell(w, ec, v)
										if err != nil {
											t.Fatalf("seed=%d %s: %v", c.seed, name, err)
										}
										if spill && faults == 0 {
											t.Fatalf("seed=%d %s: no spilled segment was faulted back in", c.seed, name)
										}
										if f := res.Metrics.Recovery.Faults.Load(); f != 1 {
											t.Fatalf("seed=%d %s: %d faults recovered, want 1", c.seed, name, f)
										}
										if diff := DiffBags(ref, got); diff != "" {
											t.Fatalf("seed=%d %s: engine diverges from oracle after kill:\n%s", c.seed, name, diff)
										}
									})
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestChaosKillMidStreamPeerRoute pins the §5 route on a mid-stream kill: a
// Random-Hypercube replicates every relation, so the killed task's state
// must come back from peers, and post-recovery arrivals must join against
// the restored state (a wrong restore shows up as a bag mismatch).
func TestChaosKillMidStreamPeerRoute(t *testing.T) {
	const seed = int64(41)
	w := RandomWorkload(seed, 2, 900, 60, false)
	ref := w.ReferenceBag()
	ec := EngineConfig{
		Scheme: squall.RandomHypercube, Local: squall.Traditional,
		BatchSize: 8, Kill: true, Machines: 6, Seed: seed,
	}
	got, res, err := w.RunEngine(ec)
	if err != nil {
		t.Fatalf("seed=%d: %v", seed, err)
	}
	rm := &res.Metrics.Recovery
	if rm.Faults.Load() != 1 {
		t.Fatalf("seed=%d: %d faults, want 1", seed, rm.Faults.Load())
	}
	if rm.PeerRels.Load() == 0 {
		t.Fatalf("seed=%d: Random-Hypercube kill recovered without any peer route (peer=%d ckpt=%d)",
			seed, rm.PeerRels.Load(), rm.CheckpointRels.Load())
	}
	if rm.RestoredTuples.Load() == 0 {
		t.Fatalf("seed=%d: no tuples restored", seed)
	}
	if diff := DiffBags(ref, got); diff != "" {
		t.Fatalf("seed=%d: diverges from oracle after mid-stream kill:\n%s", seed, diff)
	}
}

// TestDifferentialAdaptiveDrift is the acceptance scenario: under a
// heavily drifting |R| : |S| ratio the adaptive run must reshape at least
// once, report migrated bytes, and stay bag-equal to both the oracle and
// the frozen-matrix static run.
func TestDifferentialAdaptiveDrift(t *testing.T) {
	const seed = int64(21)
	t.Logf("workload seed=%d", seed)
	w := RandomWorkload(seed, 2, 60, 40, false)
	// Drift: rebuild relation 0 much larger than relation 1, so the ratio
	// the controller observes wanders far from the initial square-ish guess.
	big := RandomWorkload(seed+1, 2, 6000, 40, false)
	w.Rels[0] = big.Rels[0]
	ref := w.ReferenceBag()

	// A moderate batch size keeps the in-flight tuple budget small enough
	// that the controller observes the drift while the stream is live.
	adaptiveCfg := EngineConfig{
		Scheme: squall.RandomHypercube, Local: squall.Traditional,
		BatchSize: 16, Adaptive: true, Machines: 8, Seed: seed,
	}
	staticCfg := adaptiveCfg
	staticCfg.Adaptive = false

	q := w.query(adaptiveCfg)
	// Start from the worst shape for an R-heavy stream: one row means every
	// machine receives every R tuple.
	q.Adapt.InitialRows, q.Adapt.InitialCols = 1, 8
	// The 60-row S stream drains before R starts, so S is stored on the
	// joiners when the R flood triggers the 1x8 -> 8x1 reshape, and the
	// migration always has S rows to replicate (60 rows x 7 new cells).
	// Run concurrently, the reshape could fire while every S row still sat
	// in the source's per-column batches, leaving nothing to migrate.
	q.Sources[1].Spout, q.Sources[0].Spout = DrainBefore(q.Sources[1].Spout, q.Sources[0].Spout)
	res, err := q.Run(squall.Options{Seed: seed, BatchSize: 16, ChannelBuf: 8})
	if err != nil {
		t.Fatalf("seed=%d adaptive run: %v", seed, err)
	}
	if got := res.Metrics.Adapt.Reshapes.Load(); got < 1 {
		t.Fatalf("seed=%d: adaptive run performed %d reshapes, want >= 1", seed, got)
	}
	if got := res.Metrics.Adapt.MigratedBytes.Load(); got <= 0 {
		t.Fatalf("seed=%d: adaptive run reported %d migrated bytes, want > 0", seed, got)
	}
	adaptiveBag := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		adaptiveBag[r.Key()]++
	}
	if diff := DiffBags(ref, adaptiveBag); diff != "" {
		t.Fatalf("seed=%d: adaptive run diverges from oracle:\n%s", seed, diff)
	}

	staticBag, _, err := w.RunEngine(staticCfg)
	if err != nil {
		t.Fatalf("seed=%d static run: %v", seed, err)
	}
	if diff := DiffBags(staticBag, adaptiveBag); diff != "" {
		t.Fatalf("seed=%d: adaptive and static runs disagree:\n%s", seed, diff)
	}
}
