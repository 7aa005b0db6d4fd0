package main

import (
	"fmt"
	"time"

	"squall"
	"squall/experiments"
	"squall/internal/dataflow"
	"squall/internal/datagen"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/types"
)

// tpch9 is the paper's §7.3 TPCH9-Partial aggregation: Lineitem ⋈
// PartSupp ⋈ σ_green Part, SUM(extendedprice) GROUP BY suppkey, zipf 2 on
// Lineitem.partkey, Hybrid-Hypercube over 8 joiners with DBToaster
// aggregate views. Closed loop: each source replays its pre-generated
// table as fast as the engine takes it.
type tpch9 struct {
	gen            *datagen.TPCH
	line, ps, part []types.Tuple
	want           map[int64]float64
	refDur         time.Duration
	seed           int64
}

const (
	tpch9Lineitems = 600_000
	tpch9Zipf      = 2.0
	tpch9Machines  = 8
)

func (w *tpch9) query() *squall.JoinQuery {
	return experiments.TPCH9Partial(w.gen, squall.HybridHypercube, squall.DBToaster, tpch9Machines)
}

// drain reads every row a generator spout produces.
func drain(f dataflow.SpoutFactory) []types.Tuple {
	s := f(0, 1)
	var out []types.Tuple
	for {
		t, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// intern makes equal string values share one backing string, so the
// inputs the benchmark holds cost the heap as little as the data allows.
func intern(rows []types.Tuple) {
	seen := map[string]string{}
	for _, r := range rows {
		for i, v := range r {
			if v.Kind() != types.KindString {
				continue
			}
			if s, ok := seen[v.Str]; ok {
				r[i].Str = s
			} else {
				seen[v.Str] = v.Str
			}
		}
	}
}

func (w *tpch9) prepare(seed int64) {
	w.seed = seed
	w.gen = datagen.NewTPCH(uint64(seed), tpch9Lineitems, tpch9Zipf)
	w.line = drain(w.gen.LineitemSpout())
	w.ps = drain(w.gen.PartSuppSpout())
	w.part = drain(w.gen.PartSpout())
	intern(w.line)
	intern(w.part)
	t0 := time.Now()
	w.want = tpch9Reference(w.line, w.ps, w.part)
	w.refDur = time.Since(t0)
}

// tpch9Reference computes the query with plain maps: each lineitem whose
// part is green contributes its price once per matching partsupp row.
func tpch9Reference(line, ps, part []types.Tuple) map[int64]float64 {
	green := map[int64]int{}
	for _, p := range part {
		if p[1].Str == "green" {
			green[p[0].I]++
		}
	}
	psCount := map[[2]int64]int{}
	for _, r := range ps {
		psCount[[2]int64{r[0].I, r[1].I}]++
	}
	out := map[int64]float64{}
	for _, l := range line {
		n := green[l[1].I] * psCount[[2]int64{l[1].I, l[2].I}]
		if n > 0 {
			out[l[2].I] += float64(n) * l[4].F
		}
	}
	return out
}

func (w *tpch9) events() int                  { return len(w.line) + len(w.ps) + len(w.part) }
func (w *tpch9) referenceTime() time.Duration { return w.refDur }

func (w *tpch9) iterate(it *iteration) error {
	start := time.Now()
	buf := it.tr.buf()
	h := buf.open("JoinQuery.Run", 0)
	q := w.query()
	f := newFeed(it, buf.id(h), len(q.Sources))
	for i, rows := range [][]types.Tuple{w.line, w.ps, w.part} {
		q.Sources[i].Spout = closedSource(f, rows, nil, nil)
	}
	res, err := q.Run(squall.Options{Seed: w.seed})
	end := f.measure(it, start)
	buf.close(h)
	if it.setupOnly {
		return err
	}
	it.attempted = int64(len(w.want)) + 1
	if err != nil {
		it.fail(int64(len(w.want))+1, "tpch9-agg: run failed: %v", err)
		return nil
	}
	got := map[int64]float64{}
	for _, r := range res.Rows {
		if len(r) != 2 {
			it.fail(1, "tpch9-agg: result row %v is not (suppkey, sum)", r)
			continue
		}
		got[r[0].I] += r[1].F
	}
	if d := groupDiff(got, w.want); d > 0 {
		it.fail(d, "tpch9-agg: %d of %d groups differ from the reference", d, len(w.want))
	}
	for _, s := range f.stamps {
		it.latMS = append(it.latMS, float64(end.Sub(s).Nanoseconds())/1e6)
	}
	it.info = runInfo{metrics: []*dataflow.RunMetrics{res.Metrics}, joiner: res.JoinerComponent, pressure: res.Pressure, feed: f}
	return nil
}

func (w *tpch9) layers(lc *layerCtx) error {
	q := w.query()
	hc, err := q.BuildScheme()
	if err != nil {
		return err
	}
	pre := q.Sources[2].Pre
	var green []types.Tuple
	for _, p := range w.part {
		out, err := pre.Apply(p)
		if err != nil {
			return fmt.Errorf("green filter: %w", err)
		}
		green = append(green, out...)
	}
	var results []types.Tuple
	for k, v := range w.want {
		results = append(results, types.Tuple{types.Int(k), types.Float(v)})
	}
	return lc.replay(&layerInput{
		graph:    q.Graph,
		rels:     [][]types.Tuple{w.line, w.ps, green},
		order:    interleave(len(w.line), len(w.ps), len(green)),
		hc:       hc,
		pipe:     pre,
		pipeRows: w.part,
		agg: dbtoaster.AggSpec{
			GroupBy: []dbtoaster.ColRef{{Rel: 0, E: expr.C(2)}},
			Kind:    dbtoaster.AggSum,
			Sum:     &dbtoaster.ColRef{Rel: 0, E: expr.C(4)},
		},
		buildRel: 1, buildCols: []int{0, 1},
		probeRel: 0, probeCols: []int{1, 2},
		results: results,
	})
}
