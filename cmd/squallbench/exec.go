package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"squall/internal/expr"
	"squall/internal/localjoin"
	"squall/internal/types"
	"squall/internal/wire"
)

// benchFileExec is where `-json exec` records the PR 5 numbers.
const benchFileExec = "BENCH_PR5.json"

// benchTuple synthesizes a TPC-H-ish row: int key, date string, float, tag.
func benchTuple(key int64, i int) types.Tuple {
	return types.Tuple{
		types.Int(key),
		types.Str(fmt.Sprintf("1996-%02d-%02d", 1+i%12, 1+i%28)),
		types.Float(float64(i%100000) + 0.25),
		types.Str("BUILDING"),
	}
}

// benchJoinGraph is the 2-way equi join R.key = S.key.
func benchJoinGraph() *expr.JoinGraph {
	return expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
}

// execModeResult measures one execution path on the source -> join hot
// path: transport framing, a lowered selection, routing hash and the
// joiner's probe+insert, per tuple.
type execModeResult struct {
	Name           string  `json:"name"`
	NSPerTuple     float64 `json:"ns_per_tuple"`
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
}

type execReport struct {
	PR              int            `json:"pr"`
	Benchmark       string         `json:"benchmark"`
	Legacy          execModeResult `json:"legacy"`
	Packed          execModeResult `json:"packed"`
	SpeedupX        float64        `json:"hot_path_speedup_x"`
	AllocReductionX float64        `json:"allocs_per_tuple_reduction_x"`
}

// execSelPred is the co-located selection both paths run per tuple (always
// true for the synthesized payloads, so the join load is identical).
func execSelPred() expr.Pred {
	return expr.Cmp{Op: expr.Lt, L: expr.C(2), R: expr.F(1e9)}
}

// measureExecHotPath benchmarks the source -> select -> route -> join
// insert/probe chain per tuple in one mode. The joiner is preloaded with
// `stored` R rows; the measured loop streams S arrivals through transport
// batches of 64, mirroring one engine edge at steady state.
func measureExecHotPath(packed bool, stored int) execModeResult {
	g := benchJoinGraph()
	const batch = 64
	rows := make([]types.Tuple, batch)
	pred := execSelPred()

	name := "legacy"
	if packed {
		name = "packed"
	}
	res := testing.Benchmark(func(b *testing.B) {
		j := localjoin.NewTraditional(g)
		for i := 0; i < stored; i++ {
			if err := j.Insert(0, benchTuple(int64(i), i)); err != nil {
				b.Fatal(err)
			}
		}
		for i := range rows {
			rows[i] = benchTuple(int64(i*2654435761%stored), i)
		}
		ppred, ok := expr.CompilePred(pred)
		if !ok {
			b.Fatal("selection did not lower")
		}
		var frame []byte
		var dec wire.BatchDecoder
		var cur wire.Cursor
		emit := func([]byte) error { return nil }
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += batch {
			// Producer: one wire frame per batch (both paths pay this).
			frame = wire.EncodeBatch(frame[:0], rows)
			if packed {
				// Consumer: cursor walk, lowered selection, packed routing
				// hash, blitted insert + packed probe.
				_, _, err := wire.EachRow(frame, &cur, func(row []byte) error {
					keep, err := ppred(&cur)
					if err != nil || !keep {
						return err
					}
					_ = cur.Hash(0) // hash-route on the join key
					return j.OnRow(1, row, &cur, emit)
				})
				if err != nil {
					b.Fatal(err)
				}
			} else {
				// Consumer: batch decode, boxed Eval, boxed routing hash,
				// decode-verify probe + re-encoding insert.
				out, _, err := dec.Decode(frame)
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range out {
					keep, err := pred.Eval(t)
					if err != nil || !keep {
						b.Fatal(err)
					}
					_ = t.Hash(0)
					if _, err := j.OnTuple(1, t); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	return execModeResult{
		Name:           name,
		NSPerTuple:     float64(res.NsPerOp()),
		AllocsPerTuple: float64(res.AllocsPerOp()),
	}
}

// execBench is the packed-execution experiment: the packed-row operator
// path against the boxed tuple operators — per-tuple cost and allocations
// on the source -> join hot path, with the operators built directly (the
// engine runs only the packed path). It exits non-zero when packed
// execution stops paying for itself (the CI gate): allocs/tuple must drop
// >= 2x at any scale.
func execBench() {
	stored := 200_000
	if *smoke {
		stored = 20_000
	}
	header(fmt.Sprintf("Packed-row execution vs boxed tuple operators (%d stored)", stored))

	legacy := measureExecHotPath(false, stored)
	packed := measureExecHotPath(true, stored)

	fmt.Printf("  %-8s %14s %16s\n", "exec", "hot-path ns/t", "allocs/t")
	for _, r := range []execModeResult{legacy, packed} {
		fmt.Printf("  %-8s %14.0f %16.2f\n", r.Name, r.NSPerTuple, r.AllocsPerTuple)
	}

	report := execReport{
		PR:        5,
		Benchmark: fmt.Sprintf("packed vs boxed source->join hot path (%d stored R rows, 4-col TPC-H-ish rows)", stored),
		Legacy:    legacy,
		Packed:    packed,
		SpeedupX:  legacy.NSPerTuple / packed.NSPerTuple,
	}
	if packed.AllocsPerTuple > 0 {
		report.AllocReductionX = legacy.AllocsPerTuple / packed.AllocsPerTuple
	} else {
		report.AllocReductionX = legacy.AllocsPerTuple / 0.01 // alloc-free packed path
	}

	fmt.Printf("  hot path: %.2fx faster, %.1fx fewer allocs/tuple\n", report.SpeedupX, report.AllocReductionX)

	if report.AllocReductionX < 2 {
		fmt.Fprintf(os.Stderr, "  FAIL: allocs/tuple reduction %.2fx < 2x\n", report.AllocReductionX)
		os.Exit(1)
	}

	if *jsonOut {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(benchFileExec, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", benchFileExec, err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s\n", benchFileExec)
	}
}
