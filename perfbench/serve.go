package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/ops"
	"squall/internal/serve"
	"squall/internal/types"
)

// serveStream is the serving engine under an open loop: two shared
// sources R(k, ts, pad) and S(k, ts, pad), serveQueries registered 2-way
// equi-joins on k (Traditional, Hash-Hypercube, 4 joiners, each with its
// own selection on R), each subscribed. Rows are due at serveLowRate rows/s
// per source for servePhaseRows[low] rows, then at serveHighRate; latency
// is subscriber receipt minus the later due time of the two joined rows.
type serveStream struct {
	r, s   []types.Tuple
	want   []bag
	refDur time.Duration
	seed   int64
}

const (
	serveQueries  = 4
	serveMachines = 4
	serveLowRate  = 5_000  // rows/s per source
	serveHighRate = 10_000 // rows/s per source
	servePhaseSec = 2      // seconds each rate phase lasts
	serveKeyBlock = 64     // S keys are shuffled within blocks of this many rows
)

var serveLow = serveLowRate * servePhaseSec

// servePads are the pad values; query q drops R rows whose pad is
// servePads[q], so each query keeps 3/4 of R.
var servePads = [serveQueries]string{
	"pad-a-0123456789abcdefghijklmnop",
	"pad-b-0123456789abcdefghijklmnop",
	"pad-c-0123456789abcdefghijklmnop",
	"pad-d-0123456789abcdefghijklmnop",
}

var streamSchema = types.NewSchema("stream",
	types.Column{Name: "k", Kind: types.KindInt},
	types.Column{Name: "ts", Kind: types.KindInt},
	types.Column{Name: "pad", Kind: types.KindString},
)

func (w *serveStream) prepare(seed int64) {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	n := serveLow + serveHighRate*servePhaseSec
	w.r = make([]types.Tuple, n)
	w.s = make([]types.Tuple, n)
	for i := range w.r {
		w.r[i] = types.Tuple{types.Int(int64(i / 2)), types.Int(int64(i)), types.Str(servePads[rng.Intn(serveQueries)])}
	}
	// Each key has two R rows and two S rows; S rows reach their key within
	// one block, so matches are produced close to their due time.
	for b := 0; b < n; b += serveKeyBlock {
		m := min(serveKeyBlock, n-b)
		perm := rng.Perm(m)
		for j := 0; j < m; j++ {
			w.s[b+j] = types.Tuple{types.Int(int64((b + perm[j]) / 2)), types.Int(int64(b + j)), types.Str(servePads[rng.Intn(serveQueries)])}
		}
	}
	t0 := time.Now()
	w.want = make([]bag, serveQueries)
	for q := range w.want {
		pad := servePads[q]
		w.want[q] = hashJoin(w.r, w.s, 0, 0, 1, func(t types.Tuple) bool { return t[2].Str != pad })
	}
	w.refDur = time.Since(t0)
}

func (w *serveStream) events() int                  { return len(w.r) + len(w.s) }
func (w *serveStream) referenceTime() time.Duration { return w.refDur }

// query builds registered query q over the shared sources (nil spouts)
// or, for replays, over the given spouts.
func (w *serveStream) query(q int, r, s dataflow.SpoutFactory) *squall.JoinQuery {
	pre := ops.Pipeline{ops.Select{P: expr.Cmp{Op: expr.Ne, L: expr.C(2), R: expr.S(servePads[q])}}}
	return &squall.JoinQuery{
		Sources: []squall.Source{
			{Name: "R", Schema: streamSchema, Spout: r, Size: int64(len(w.r)), Pre: pre},
			{Name: "S", Schema: streamSchema, Spout: s, Size: int64(len(w.s))},
		},
		Graph:    expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0)),
		Scheme:   squall.HashHypercube,
		Machines: serveMachines,
		Local:    squall.Traditional,
	}
}

// subscriber drains one query's deltas, timing each row from its due time.
type subscriber struct {
	sub    *serve.Subscription
	got    bag
	lat    [2][]float64
	rows   int64
	deltas int64
	final  bool
	err    error
	drop   int64
}

func (c *subscriber) drain(sched *schedule, buf *spanBuf, parent int64) {
	c.got = bag{}
	for d := range c.sub.C() {
		now := time.Now().UnixNano()
		h := buf.open("subscriber.receive", parent)
		c.deltas++
		for _, row := range d.Rows {
			rts, sts := row[1].I, row[4].I
			c.got[pair{rts, sts}]++
			later := int(max(rts, sts))
			c.lat[sched.phase(later)] = append(c.lat[sched.phase(later)], sched.latencyMS(later, now))
		}
		c.rows += int64(len(d.Rows))
		if d.Final {
			c.final, c.err, c.drop = true, d.Err, d.Dropped
		}
		buf.close(h)
	}
}

func (w *serveStream) iterate(it *iteration) error {
	start := time.Now()
	buf := it.tr.buf()
	root := buf.open("serve.iteration", 0)
	parent := buf.id(root)
	f := newFeed(it, parent, 2)
	sched := &schedule{nLow: serveLow, lowRate: serveLowRate, highRate: serveHighRate}
	sched.t0.Store(start.Add(time.Hour).UnixNano()) // nothing is due before the engine starts
	var spouts []*openSpout
	var mu sync.Mutex
	source := func(rows []types.Tuple) dataflow.SpoutFactory {
		return func(task, ntasks int) dataflow.Spout {
			s := &openSpout{f: f, rows: rows, sched: sched, buf: f.buf()}
			mu.Lock()
			spouts = append(spouts, s)
			mu.Unlock()
			return s
		}
	}
	eng := squall.NewEngine(squall.EngineOptions{Run: squall.Options{Seed: w.seed, CollectLimit: 1}})
	defer eng.Close()
	eng.AddSource("R", source(w.r), int64(len(w.r)))
	eng.AddSource("S", source(w.s), int64(len(w.s)))
	subs := make([]*subscriber, serveQueries)
	sqs := make([]*squall.ServedQuery, serveQueries)
	for q := range subs {
		h := buf.open("Engine.Register", parent)
		sq, err := eng.Register(squall.RegisterRequest{ID: fmt.Sprintf("q%d", q), Query: w.query(q, nil, nil)})
		buf.close(h)
		if err != nil {
			return fmt.Errorf("register q%d: %w", q, err)
		}
		h = buf.open("Engine.Subscribe", parent)
		sub, err := eng.Subscribe(sq.ID, serve.SubOptions{Policy: serve.CoalesceDeltas})
		buf.close(h)
		if err != nil {
			return fmt.Errorf("subscribe q%d: %w", q, err)
		}
		sqs[q], subs[q] = sq, &subscriber{sub: sub}
	}
	var wg sync.WaitGroup
	for _, c := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.drain(sched, it.tr.buf(), parent)
		}()
	}
	sched.t0.Store(time.Now().UnixNano())
	eng.Start()
	wg.Wait()
	f.measure(it, start)
	results := make([]*squall.Result, serveQueries)
	var waitErr []error
	for q, sq := range sqs {
		h := buf.open("ServedQuery.Wait", parent)
		res, err := sq.Wait()
		buf.close(h)
		results[q] = res
		waitErr = append(waitErr, err)
	}
	stats := eng.Stats()
	buf.close(root)
	if it.setupOnly {
		return nil
	}
	var stalls int64
	for _, s := range stats.Sources {
		stalls += s.Stalls
	}
	it.info = runInfo{joiner: results[0].JoinerComponent, sources: stats.Sources, feed: f}
	mu.Lock()
	for _, s := range spouts {
		it.info.late = append(it.info.late, s.late...)
	}
	mu.Unlock()
	for q, c := range subs {
		want := w.want[q]
		it.attempted += bagSize(want) + 1
		switch {
		case waitErr[q] != nil:
			it.fail(1, "serve-stream q%d: run failed: %v", q, waitErr[q])
		case !c.final || c.err != nil:
			it.fail(1, "serve-stream q%d: final delta missing (err %v)", q, c.err)
		}
		if d := bagDiff(c.got, want); d > 0 {
			it.fail(d, "serve-stream q%d: %d result rows differ from the reference:%s", q, d, describeDiff(c.got, want))
		}
		if c.drop > 0 {
			it.fail(c.drop, "serve-stream q%d: %d rows dropped", q, c.drop)
		}
		it.info.metrics = append(it.info.metrics, results[q].Metrics)
		it.info.subRows += c.rows
		it.info.subDeltas += c.deltas
		it.info.dropped += c.drop
		for p := range c.lat {
			it.phaseMS[p] = append(it.phaseMS[p], c.lat[p]...)
			it.latMS = append(it.latMS, c.lat[p]...)
		}
	}
	if stalls > 0 {
		it.fail(stalls, "serve-stream: %d stalled taps", stalls)
	}
	return nil
}

func (w *serveStream) layers(lc *layerCtx) error {
	q := w.query(0, dataflow.SliceSpout(w.r), dataflow.SliceSpout(w.s))
	hc, err := q.BuildScheme()
	if err != nil {
		return err
	}
	pre := q.Sources[0].Pre
	var kept []types.Tuple
	for _, t := range w.r {
		out, err := pre.Apply(t)
		if err != nil {
			return err
		}
		kept = append(kept, out...)
	}
	var results []types.Tuple
	for p := range w.want[0] {
		results = append(results, append(append(types.Tuple{}, w.r[p[0]]...), w.s[p[1]]...))
		if len(results) == replayHubRows {
			break
		}
	}
	return lc.replay(&layerInput{
		graph:    q.Graph,
		rels:     [][]types.Tuple{kept, w.s},
		order:    interleave(len(kept), len(w.s)),
		hc:       hc,
		pipe:     pre,
		pipeRows: w.r,
		agg:      dbtoaster.AggSpec{GroupBy: []dbtoaster.ColRef{{Rel: 0, E: expr.C(0)}}, Kind: dbtoaster.AggCount},
		buildRel: 0, buildCols: []int{0},
		probeRel: 1, probeCols: []int{0},
		results: results,
	})
}
