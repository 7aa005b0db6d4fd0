package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/types"
	"squall/internal/vec"
	"squall/internal/wire"
)

// benchFileVec is where `-json vec` records the PR 6 numbers.
const benchFileVec = "BENCH_PR6.json"

// vecHotRows is the rows-per-frame on the measured edge: the engine's
// transport frames are smaller, but the kernels are size-oblivious and a
// bigger frame keeps the benchmark loop out of the timer overhead.
const vecHotRows = 1024

// vecModeResult measures one execution mode on the select/agg hot path:
// a frame arrives, a selection prunes it, survivors fold into a grouped
// SUM — per tuple.
type vecModeResult struct {
	Name           string  `json:"name"`
	NSPerTuple     float64 `json:"ns_per_tuple"`
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
}

type vecReport struct {
	PR        int           `json:"pr"`
	Benchmark string        `json:"benchmark"`
	Boxed     vecModeResult `json:"boxed"`
	Packed    vecModeResult `json:"packed"`
	Vec       vecModeResult `json:"vectorized"`
	// SpeedupVsPackedX is the acceptance metric: vectorized vs the PR 5
	// packed-row baseline on the select/agg hot path.
	SpeedupVsPackedX float64          `json:"hot_path_speedup_vs_packed_x"`
	SpeedupVsBoxedX  float64          `json:"hot_path_speedup_vs_boxed_x"`
	FullJoin         vecFullJoinBench `json:"full_join"`
}

// vecFullJoinBench is the end-to-end aggregated full join on the engine's
// one data path (informational: the join dominates this workload, the
// kernels only run on its edges).
type vecFullJoinBench struct {
	RTuples int     `json:"r_tuples"`
	STuples int     `json:"s_tuples"`
	VecMS   float64 `json:"vectorized_ms"`
	Groups  int64   `json:"result_groups"`
}

// vecHotPred keeps roughly a fifth of each frame: selective enough that
// the kernel's branch-free pruning pays, dense enough that the agg fold
// downstream still sees real work.
func vecHotPred(keyDomain int) expr.Pred {
	return expr.Cmp{Op: expr.Lt, L: expr.C(0), R: expr.I(int64(keyDomain / 5))}
}

// measureVecHotPath benchmarks one mode of the consumer side of an engine
// edge: a transport frame of vecHotRows rows runs select -> grouped SUM.
// The producer-encoded frame is built once (every mode reads the same
// bytes; the vectorized mode reads the footered form its producers emit)
// so the numbers isolate per-tuple execution cost, not encoding.
func measureVecHotPath(mode string, keyDomain int) vecModeResult {
	rows := make([]types.Tuple, vecHotRows)
	for i := range rows {
		rows[i] = benchTuple(int64(i*2654435761%keyDomain), i)
	}
	pred := vecHotPred(keyDomain)
	bare := wire.EncodeBatch(nil, rows)
	footered := wire.AppendFooter(append([]byte(nil), bare...))

	res := testing.Benchmark(func(b *testing.B) {
		agg := ops.NewAgg([]expr.Expr{expr.C(0)}, ops.Sum, expr.C(2), false)
		if !agg.PackedCapable() {
			b.Fatal("col-ref agg must be packed-capable")
		}
		var run func() error
		switch mode {
		case "boxed":
			var dec wire.BatchDecoder
			run = func() error {
				out, _, err := dec.Decode(bare)
				if err != nil {
					return err
				}
				for _, t := range out {
					keep, err := pred.Eval(t)
					if err != nil {
						return err
					}
					if !keep {
						continue
					}
					if _, err := agg.Fold(t); err != nil {
						return err
					}
				}
				return nil
			}
		case "packed":
			ppred, ok := expr.CompilePred(pred)
			if !ok {
				b.Fatal("selection did not lower to a packed predicate")
			}
			var cur wire.Cursor
			run = func() error {
				_, _, err := wire.EachRow(bare, &cur, func([]byte) error {
					keep, err := ppred(&cur)
					if err != nil || !keep {
						return err
					}
					return agg.FoldRow(&cur)
				})
				return err
			}
		case "vectorized":
			vpred, ok := expr.CompileVecPred(pred)
			if !ok {
				b.Fatal("selection did not lower to a vectorized predicate")
			}
			view := &vec.FrameView{}
			run = func() error {
				if !view.Reset(footered) {
					return fmt.Errorf("footered frame rejected")
				}
				sel, ok, err := vpred(view, nil, view.All())
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("uniform frame defeated the kernel")
				}
				handled, err := agg.FoldFrame(view, sel)
				if err != nil {
					return err
				}
				if !handled {
					return fmt.Errorf("uniform frame fell back to the row fold")
				}
				return nil
			}
		default:
			b.Fatalf("unknown mode %q", mode)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += vecHotRows {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return vecModeResult{
		Name:           mode,
		NSPerTuple:     float64(res.NsPerOp()),
		AllocsPerTuple: float64(res.AllocsPerOp()),
	}
}

// vecFullJoin runs the end-to-end aggregated full join — co-located
// selections, 2-way equi join, grouped SUM on top — through the engine and
// requires one group per distinct S key (every S key joins R).
func vecFullJoin(rn, sn int) vecFullJoinBench {
	g := benchJoinGraph()
	keys := rn/4 + 1
	rRows := make([]types.Tuple, rn)
	for i := range rRows {
		rRows[i] = benchTuple(int64(i%keys), i)
	}
	sRows := make([]types.Tuple, sn)
	for i := range sRows {
		sRows[i] = benchTuple(int64(i%keys), i)
	}
	schema := func(name string) *types.Schema {
		return types.NewSchema(name,
			types.Column{Name: "key", Kind: types.KindInt},
			types.Column{Name: "date", Kind: types.KindString},
			types.Column{Name: "price", Kind: types.KindFloat},
			types.Column{Name: "segment", Kind: types.KindString},
		)
	}
	run := func() (time.Duration, int64) {
		q := &squall.JoinQuery{
			Graph:    g,
			Scheme:   squall.HybridHypercube,
			Machines: 8,
			Local:    squall.Traditional,
			Sources: []squall.Source{
				{Name: "R", Schema: schema("R"), Spout: dataflow.SliceSpout(rRows), Size: int64(rn),
					Pre: ops.Pipeline{ops.Select{P: execSelPred()}}},
				{Name: "S", Schema: schema("S"), Spout: dataflow.SliceSpout(sRows), Size: int64(sn),
					Pre: ops.Pipeline{ops.Select{P: execSelPred()}}},
			},
			Agg: &squall.AggSpec{
				GroupBy: []squall.ColRef{{Rel: 0, E: expr.C(0)}},
				Kind:    squall.Sum,
				Sum:     &squall.ColRef{Rel: 1, E: expr.C(2)},
			},
		}
		runtime.GC()
		res, err := q.Run(squall.Options{Seed: 7})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vec: full join: %v\n", err)
			os.Exit(1)
		}
		return res.Metrics.Elapsed, res.RowCount
	}
	const reps = 3
	run() // warmup, discarded
	var total time.Duration
	var groups int64
	for i := 0; i < reps; i++ {
		d, n := run()
		total += d
		groups = n
	}
	if want := int64(min(sn, keys)); groups != want {
		fmt.Fprintf(os.Stderr, "vec: FAIL: full join produced %d groups, want %d\n", groups, want)
		os.Exit(1)
	}
	return vecFullJoinBench{
		RTuples: rn, STuples: sn,
		VecMS:  float64((total / reps).Microseconds()) / 1000,
		Groups: groups,
	}
}

// vecBench is the PR 6 experiment: vectorized frame execution (column
// footers, selection-vector kernels, group-wise frame folds) against
// packed-row and boxed tuple operators built directly — per-tuple cost on
// the select/agg hot path — plus the end-to-end aggregated full join on the
// engine's one data path. It exits non-zero when the vectorized path stops
// paying for itself (the CI gate): >= 1.8x over packed rows on the hot path
// at full scale (the smoke gate is looser to absorb CI noise), or when the
// full join returns the wrong number of groups.
func vecBench() {
	keyDomain := 100_000
	fullR, fullS := 750_000, 250_000
	hotGate := 1.8
	if *smoke {
		keyDomain = 10_000
		fullR, fullS = 24_000, 6_000
		hotGate = 1.2
	}
	header(fmt.Sprintf("Vectorized frame execution vs packed rows vs boxed tuples (%d-row frames, %d:%d full join)", vecHotRows, fullR, fullS))

	// Best of 3 per mode: the per-tuple numbers sit in the tens of
	// nanoseconds, where one scheduler hiccup shifts a single run by more
	// than the gate margin.
	best := func(mode string) vecModeResult {
		r := measureVecHotPath(mode, keyDomain)
		for rep := 1; rep < 3; rep++ {
			if next := measureVecHotPath(mode, keyDomain); next.NSPerTuple < r.NSPerTuple {
				r = next
			}
		}
		return r
	}
	boxed := best("boxed")
	packed := best("packed")
	vectorized := best("vectorized")

	fmt.Printf("  %-12s %14s %16s\n", "exec", "hot-path ns/t", "allocs/t")
	for _, r := range []vecModeResult{boxed, packed, vectorized} {
		fmt.Printf("  %-12s %14.1f %16.3f\n", r.Name, r.NSPerTuple, r.AllocsPerTuple)
	}

	report := vecReport{
		PR: 6,
		Benchmark: fmt.Sprintf("select/agg hot path over %d-row frames (key domain %d, 20%% selectivity, grouped SUM) and end-to-end aggregated full join (%d:%d, 8J)",
			vecHotRows, keyDomain, fullR, fullS),
		Boxed:            boxed,
		Packed:           packed,
		Vec:              vectorized,
		SpeedupVsPackedX: packed.NSPerTuple / vectorized.NSPerTuple,
		SpeedupVsBoxedX:  boxed.NSPerTuple / vectorized.NSPerTuple,
	}
	report.FullJoin = vecFullJoin(fullR, fullS)

	fmt.Printf("  hot path: %.2fx vs packed rows, %.2fx vs boxed\n", report.SpeedupVsPackedX, report.SpeedupVsBoxedX)
	fmt.Printf("  end-to-end agg full join (%d:%d, 8J): %.1fms, %d groups\n",
		fullR, fullS, report.FullJoin.VecMS, report.FullJoin.Groups)

	if report.SpeedupVsPackedX < hotGate {
		fmt.Fprintf(os.Stderr, "  FAIL: hot-path speedup %.2fx < %.2fx gate\n", report.SpeedupVsPackedX, hotGate)
		os.Exit(1)
	}

	if *jsonOut {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(benchFileVec, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", benchFileVec, err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s\n", benchFileVec)
	}
}
