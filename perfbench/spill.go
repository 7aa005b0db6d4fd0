package main

import (
	"math/rand"
	"slices"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/datagen"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/recovery"
	"squall/internal/types"
)

// spillCapped is stream-table enrichment under a memory cap: a reference
// relation R is loaded first, then S streams probes with zipf keys. The
// 2-way Traditional join runs on tiered slab state capped at
// spillCapBytes, so sealed segments spill and fault back in. Closed loop,
// with the S source held back until R's last row, so arrivals reach the
// joiner in a fixed order.
//
// The join runs on one joiner task. The cap drives one pressure ladder
// shared by every joiner's arena, so with several joiners which arena
// spilled depended on how the tasks happened to be scheduled: segment
// faults swung between 45k and 75k from one identical iteration to the
// next and the measured time with them. With one arena every spill and
// fault follows from the arrival order alone.
//
// Segments spill to the recovery package's in-memory segment store. With
// the file-backed store, file creates, renames and reads made up most of
// the run and swung it by about 20% from run to run on a shared disk, so
// the end-to-end numbers measured the host's file system more than the
// engine; the file-backed store is timed on its own in the per-layer
// replay (recovery.put_segment_us, recovery.get_segment_us).
type spillCapped struct {
	r, s   []types.Tuple
	want   bag
	keys   []uint64 // want as sorted pair keys
	refDur time.Duration
	seed   int64
}

const (
	spillRRows      = 150_000
	spillPerKey     = 4 // R rows per key
	spillSRows      = 150_000
	spillZipf       = 1.1
	spillKeyStride  = 7919 // prime, so rank -> key is a bijection on the key range
	spillLayoutSeed = 1    // fixes R's row order (see prepare)
	spillMachines   = 1    // see spillCapped
	spillSegRows    = 256
	spillChanBuf    = 8
	spillCapBytes   = 12_000_000 // fixed; about half the uncapped peak resident state
	spillPad        = "enrichment-payload-0123456789abcdefghijklmnopqrstuvwxyz"
	spillResultCol  = 2 // result rows are projected to (R.ts, S.ts)
)

func (w *spillCapped) prepare(seed int64) {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	keys := spillRRows / spillPerKey
	// R's row order is one fixed shuffle, the same for every seed: which
	// keys share a sealed segment decides how many segments the probes
	// fault in, and a per-seed shuffle moved that, and the run time, by up
	// to 25% from seed to seed. The seed varies the probe stream.
	order := rand.New(rand.NewSource(spillLayoutSeed)).Perm(spillRRows)
	w.r = make([]types.Tuple, spillRRows)
	for i, p := range order {
		w.r[i] = types.Tuple{types.Int(int64(p / spillPerKey)), types.Int(int64(i)), types.Str(spillPad)}
	}
	// Zipf ranks map onto keys through a fixed stride, so the hot keys are
	// spread over R and are the same keys for every seed: the seed varies
	// which rows are drawn, not which segments hold the hot keys.
	z := datagen.NewZipf(int64(keys), spillZipf)
	w.s = make([]types.Tuple, spillSRows)
	for j := range w.s {
		k := (z.RankFrom(rng.Float64()) - 1) * spillKeyStride % int64(keys)
		w.s[j] = types.Tuple{types.Int(k), types.Int(int64(j)), types.Str(spillPad)}
	}
	t0 := time.Now()
	w.want = hashJoin(w.r, w.s, 0, 0, 1, nil)
	w.refDur = time.Since(t0)
	w.keys = sortedKeys(w.want)
}

func (w *spillCapped) events() int                  { return len(w.r) + len(w.s) }
func (w *spillCapped) referenceTime() time.Duration { return w.refDur }

// post projects each result row to (R.ts, S.ts).
var spillPost = ops.Pipeline{ops.Project{Es: []expr.Expr{expr.C(1), expr.C(4)}}}

func (w *spillCapped) query(r, s dataflow.SpoutFactory) *squall.JoinQuery {
	return &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "R", Schema: streamSchema, Spout: r, Size: int64(len(w.r))},
			{Name: "S", Schema: streamSchema, Spout: s, Size: int64(len(w.s))},
		},
		Graph:    expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
		Scheme:   squall.HashHypercube,
		Machines: spillMachines,
		Local:    squall.Traditional,
		Post:     spillPost,
	}
}

func (w *spillCapped) iterate(it *iteration) error {
	start := time.Now()
	buf := it.tr.buf()
	h := buf.open("JoinQuery.Run", 0)
	f := newFeed(it, buf.id(h), 2)
	loaded := make(chan struct{})
	q := w.query(
		closedSource(f, w.r, nil, func() { close(loaded) }),
		closedSource(f, w.s, loaded, nil),
	)
	res, err := q.Run(squall.Options{
		Seed:       w.seed,
		ChannelBuf: spillChanBuf,
		Tier:       &squall.TierOptions{SegmentRows: spillSegRows, MemCapBytes: spillCapBytes, Store: recovery.NewMemStore()},
	})
	end := f.measure(it, start)
	buf.close(h)
	if it.setupOnly {
		return err
	}
	it.attempted = bagSize(w.want) + 1
	if err != nil {
		it.fail(bagSize(w.want)+1, "spill-capped: run failed: %v", err)
		return nil
	}
	// Both ts columns are row indexes below 2^32, so each result row is one
	// sortable key; the check then costs a sort rather than a map insert per
	// row, which leaves more of the run to measuring.
	got := make([]uint64, 0, len(res.Rows))
	for _, r := range res.Rows {
		if len(r) != spillResultCol {
			it.fail(1, "spill-capped: result row %v is not (R.ts, S.ts)", r)
			continue
		}
		got = append(got, pairKey(pair{r[0].I, r[1].I}))
	}
	slices.Sort(got)
	if d := keysDiff(got, w.keys); d > 0 {
		it.fail(d, "spill-capped: %d result rows differ from the reference:%s", d, describeDiff(resultBag(res.Rows), w.want))
	}
	switch p := res.Pressure; {
	case p == nil:
		it.fail(1, "spill-capped: the run reported no pressure ladder")
	case p.Spills == 0:
		it.fail(1, "spill-capped: nothing spilled under a %d-byte cap", p.CapBytes)
	case p.PeakResident > p.CapBytes:
		it.fail(1, "spill-capped: peak resident %d bytes exceeds the %d-byte cap", p.PeakResident, p.CapBytes)
	}
	for _, s := range f.stamps {
		it.latMS = append(it.latMS, float64(end.Sub(s).Nanoseconds())/1e6)
	}
	it.info = runInfo{metrics: []*dataflow.RunMetrics{res.Metrics}, joiner: res.JoinerComponent, pressure: res.Pressure, feed: f}
	return nil
}

func (w *spillCapped) layers(lc *layerCtx) error {
	q := w.query(dataflow.SliceSpout(w.r), dataflow.SliceSpout(w.s))
	hc, err := q.BuildScheme()
	if err != nil {
		return err
	}
	// Arrivals are fixed: all of R, then all of S.
	order := make([]arrival, 0, len(w.r)+len(w.s))
	for i := range w.r {
		order = append(order, arrival{0, i})
	}
	for i := range w.s {
		order = append(order, arrival{1, i})
	}
	var joined []types.Tuple
	for p := range w.want {
		joined = append(joined, append(append(types.Tuple{}, w.r[p[0]]...), w.s[p[1]]...))
		if len(joined) == replayHubRows {
			break
		}
	}
	return lc.replay(&layerInput{
		graph:    q.Graph,
		rels:     [][]types.Tuple{w.r, w.s},
		order:    order,
		hc:       hc,
		pipe:     spillPost,
		pipeRows: joined,
		agg:      dbtoaster.AggSpec{GroupBy: []dbtoaster.ColRef{{Rel: 0, E: expr.C(0)}}, Kind: dbtoaster.AggCount},
		buildRel: 0, buildCols: []int{0},
		probeRel: 1, probeCols: []int{0},
		tiered:   true,
		capBytes: spillCapBytes / spillMachines,
		results:  joined,
	})
}

// resultBag collects (R.ts, S.ts) result rows into a bag, for describing a
// failed check.
func resultBag(rows []types.Tuple) bag {
	b := bag{}
	for _, r := range rows {
		if len(r) == spillResultCol {
			b[pair{r[0].I, r[1].I}]++
		}
	}
	return b
}
