package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"squall/internal/core"
	"squall/internal/dataflow"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/index"
	"squall/internal/localjoin"
	"squall/internal/ops"
	"squall/internal/recovery"
	"squall/internal/serve"
	"squall/internal/slab"
	"squall/internal/types"
	"squall/internal/vec"
	"squall/internal/wire"
)

// runInfo is what a traced iteration exposes to the per-layer metrics: the
// engine's own counters plus what the benchmark saw at its boundaries.
type runInfo struct {
	metrics  []*dataflow.RunMetrics // one per query run
	joiner   string
	pressure *slab.PressureStats
	sources  []serve.SourceStats
	// Subscriber-side delivery counts (serve-stream).
	subRows, subDeltas, dropped int64
	// feed holds the spout Next spans; late is the open-loop lateness of
	// every row (nil on closed-loop workloads).
	feed *feed
	late []time.Duration
}

// report fills the per-layer metrics that come from a traced iteration.
func (ri *runInfo) report(vals map[string]float64, it *iteration, events int) {
	var maxAvg, repl float64
	var sent, batches, bytesOut, vecRows int64
	for _, m := range ri.metrics {
		if c := m.Component(ri.joiner); c != nil && c.AvgLoad() > 0 {
			maxAvg += float64(c.MaxLoad()) / c.AvgLoad()
		}
		repl += m.ReplicationFactor(ri.joiner)
		sent += m.TotalSent()
		batches += m.TotalBatches()
		bytesOut += m.TotalBytesOut()
		vecRows += m.TotalVecRows()
	}
	nq := float64(max(len(ri.metrics), 1))
	vals["core.joiner_max_over_avg"] = maxAvg / nq
	vals["core.replication_factor"] = repl / nq
	vals["dataflow.rows_per_batch"] = ratio(sent, batches)
	vals["dataflow.bytes_out_per_event"] = float64(bytesOut) / float64(events)
	vals["dataflow.vec_row_frac"] = ratio(vecRows, sent)

	// Gaps between successive Next calls of each spout: start to start is
	// the engine's per-row source time; end to start is how long the engine
	// kept a closed-loop generator waiting.
	var gaps, waits []float64
	for _, b := range ri.feed.bufs {
		for i := 1; i < len(b.spans); i++ {
			gaps = append(gaps, float64(b.spans[i].start-b.spans[i-1].start))
			waits = append(waits, float64(b.spans[i].start-b.spans[i-1].end)/1e6)
		}
	}
	vals["dataflow.source_gap_ns"] = quantile(gaps, 0.5)
	if ri.late != nil {
		waits = waits[:0]
		for _, d := range ri.late {
			waits = append(waits, float64(d)/1e6)
		}
	}
	vals["gen.late_p99_ms"] = quantile(waits, 0.99)

	p := ri.pressure
	if p == nil {
		p = &slab.PressureStats{}
	}
	vals["slab.spills"] = float64(p.Spills)
	vals["slab.segment_faults"] = float64(p.SegmentFaults)
	vals["slab.faults_per_spill"] = ratio(p.SegmentFaults, p.Spills)
	vals["slab.peak_resident_over_cap"] = ratio(p.PeakResident, p.CapBytes)

	var rows, encodes, frames, stalls int64
	for _, s := range ri.sources {
		rows += s.Rows
		encodes += s.Encodes
		frames += s.Frames
		stalls += s.Stalls
	}
	vals["serve.encodes_per_row"] = ratio(encodes, rows)
	vals["serve.rows_per_frame"] = ratio(rows, frames)
	vals["serve.stalls"] = float64(stalls)
	vals["serve.rows_per_delta"] = ratio(ri.subRows, ri.subDeltas)
	vals["serve.dropped_rows"] = float64(ri.dropped)

	busy := it.rt1.cpuBusy - it.rt0.cpuBusy
	vals["runtime.gc_cpu_frac"] = 0
	if busy > 0 {
		vals["runtime.gc_cpu_frac"] = (it.rt1.cpuGC - it.rt0.cpuGC) / busy
	}
	vals["runtime.alloc_bytes_per_event"] = float64(it.rt1.allocBytes-it.rt0.allocBytes) / float64(events)
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerCtx carries the traced replays' shared state.
type layerCtx struct {
	tr   *tracer
	vals map[string]float64
	dir  string
}

// arrival is one row reaching the join: relation and row index.
type arrival struct {
	rel int
	idx int
}

// layerInput is a workload's rows in the shape each layer's public
// functions take them.
type layerInput struct {
	graph *expr.JoinGraph
	// rels are the rows each relation delivers to the join (after any
	// source pipeline), in emission order; order interleaves them as they
	// reach a joiner.
	rels  [][]types.Tuple
	order []arrival
	hc    *core.Hypercube
	// pipe is the workload's row pipeline and pipeRows the rows it runs on.
	pipe     ops.Pipeline
	pipeRows []types.Tuple
	// agg is the aggregate the dbtoaster replay maintains.
	agg dbtoaster.AggSpec
	// build/probe name the relations and key columns of the index and slab
	// replays.
	buildRel, probeRel   int
	buildCols, probeCols []int
	// tiered runs the localjoin replay on tiered arenas capped at capBytes.
	tiered   bool
	capBytes int64
	// results are result rows for the subscription fan-out replay.
	results []types.Tuple
}

// Replay sizes and settings, fixed for every workload.
const (
	replayBatch    = 64        // rows per wire batch, as the engine's default envelope
	replaySegRows  = 256       // rows per sealed slab segment
	replayArenaCap = 1 << 20   // slab replay: pressure cap in bytes
	replaySegments = 64        // recovery replay: segments written and read
	replayHubRows  = 64 * 1024 // serve replay: rows published
	replaySubs     = 4         // serve replay: subscribers
	chunkCalls     = 64        // per-row calls covered by one span
	replayRowReads = 16 * 1024 // slab replay: RowBytes calls in probe order
)

// timer accumulates the time of a repeated call and records one span per
// chunkCalls calls under parent.
type timer struct {
	buf    *spanBuf
	name   string
	parent int64
	calls  int64
	total  time.Duration
	start  time.Time
	h      int
}

func newTimer(buf *spanBuf, name string, parent int64) *timer {
	return &timer{buf: buf, name: name, parent: parent}
}

func (t *timer) begin() {
	if t.calls%chunkCalls == 0 {
		t.h = t.buf.open(t.name, t.parent)
	}
	t.start = time.Now()
}

func (t *timer) end() {
	t.total += time.Since(t.start)
	t.calls++
	if t.calls%chunkCalls == 0 {
		t.buf.close(t.h)
	}
}

// done closes a partial chunk.
func (t *timer) done() {
	if t.calls%chunkCalls != 0 {
		t.buf.close(t.h)
	}
}

func (t *timer) nsPerCall() float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.total.Nanoseconds()) / float64(t.calls)
}

// replay runs every layer replay over in.
func (lc *layerCtx) replay(in *layerInput) error {
	buf := lc.tr.buf()
	root := buf.open("layers", 0)
	defer buf.close(root)
	parent := buf.id(root)

	perTask, err := lc.core(buf, parent, in)
	if err != nil {
		return err
	}
	lc.wire(buf, parent, in)
	if err := lc.ops(buf, parent, in); err != nil {
		return err
	}
	heaviest := perTask[0]
	for _, t := range perTask {
		if len(t) > len(heaviest) {
			heaviest = t
		}
	}
	if err := lc.dbtoaster(buf, parent, in, heaviest); err != nil {
		return err
	}
	if err := lc.localjoin(buf, parent, in, heaviest); err != nil {
		return err
	}
	refs, err := lc.index(buf, parent, in)
	if err != nil {
		return err
	}
	if err := lc.slab(buf, parent, in, refs); err != nil {
		return err
	}
	if err := lc.recovery(buf, parent, in); err != nil {
		return err
	}
	lc.serve(buf, parent, in)
	return nil
}

// core times Hypercube.Targets over every arrival and returns each joiner
// task's input in arrival order.
func (lc *layerCtx) core(buf *spanBuf, parent int64, in *layerInput) ([][]arrival, error) {
	h := buf.open("layer.core", parent)
	defer buf.close(h)
	rng := rand.New(rand.NewSource(1))
	tm := newTimer(buf, "core.Hypercube.Targets", buf.id(h))
	perTask := make([][]arrival, in.hc.Machines())
	var targets []int
	for _, a := range in.order {
		tm.begin()
		t, err := in.hc.Targets(a.rel, in.rels[a.rel][a.idx], rng, targets)
		tm.end()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		targets = t
		for _, m := range t {
			perTask[m] = append(perTask[m], a)
		}
	}
	tm.done()
	lc.vals["core.targets_ns_per_row"] = tm.nsPerCall()
	return perTask, nil
}

// batches cuts rows into replayBatch-row slices.
func batches(rows []types.Tuple) [][]types.Tuple {
	var out [][]types.Tuple
	for i := 0; i < len(rows); i += replayBatch {
		out = append(out, rows[i:min(i+replayBatch, len(rows))])
	}
	return out
}

// wire times EncodeBatch over every relation's rows in engine-sized batches.
func (lc *layerCtx) wire(buf *spanBuf, parent int64, in *layerInput) {
	h := buf.open("layer.wire", parent)
	defer buf.close(h)
	var dst []byte
	var rows, nbytes int64
	var total time.Duration
	for _, rel := range in.rels {
		for _, b := range batches(rel) {
			s := buf.open("wire.EncodeBatch", buf.id(h))
			t0 := time.Now()
			dst = wire.EncodeBatch(dst[:0], b)
			total += time.Since(t0)
			buf.close(s)
			rows += int64(len(b))
			nbytes += int64(len(dst))
		}
	}
	lc.vals["wire.encode_ns_per_row"] = float64(total.Nanoseconds()) / float64(rows)
	lc.vals["wire.bytes_per_row"] = float64(nbytes) / float64(rows)
}

// ops times the compiled pipeline over footered frames of the pipeline's
// rows, vectorized where the frame allows and row by row otherwise.
func (lc *layerCtx) ops(buf *spanBuf, parent int64, in *layerInput) error {
	h := buf.open("layer.ops", parent)
	defer buf.close(h)
	var frames [][]byte
	for _, b := range batches(in.pipeRows) {
		frames = append(frames, wire.AppendFooter(wire.EncodeBatch(nil, b)))
	}
	pp := ops.CompilePipeline(in.pipe)
	var kept int64
	emit := func(row []byte, _ *wire.Cursor) error { kept++; return nil }
	var view vec.FrameView
	var cur wire.Cursor
	var total time.Duration
	for _, f := range frames {
		s := buf.open("ops.PackedPipeline.RunFrame", buf.id(h))
		t0 := time.Now()
		handled := false
		if view.Reset(f) {
			var err error
			if handled, err = pp.RunFrame(&view, emit); err != nil {
				return fmt.Errorf("ops: %w", err)
			}
		}
		if !handled {
			if _, _, err := wire.EachRow(wire.StripFooter(f), &cur, func(row []byte) error {
				return pp.EachRow(row, &cur, emit)
			}); err != nil {
				return fmt.Errorf("ops: %w", err)
			}
		}
		total += time.Since(t0)
		buf.close(s)
	}
	n := float64(len(in.pipeRows))
	lc.vals["ops.pre_ns_per_row"] = float64(total.Nanoseconds()) / n
	lc.vals["ops.pre_selectivity"] = float64(kept) / n
	return nil
}

// dbtoaster replays the heaviest joiner task's input through an
// aggregate-view operator.
func (lc *layerCtx) dbtoaster(buf *spanBuf, parent int64, in *layerInput, task []arrival) error {
	h := buf.open("layer.dbtoaster", parent)
	defer buf.close(h)
	aj, err := dbtoaster.NewAggJoin(in.graph, in.agg)
	if err != nil {
		return fmt.Errorf("dbtoaster: %w", err)
	}
	tm := newTimer(buf, "dbtoaster.AggJoin.OnTuple", buf.id(h))
	objs0 := readRuntime().allocObjs
	for _, a := range task {
		tm.begin()
		_, err := aj.OnTuple(a.rel, in.rels[a.rel][a.idx])
		tm.end()
		if err != nil {
			return fmt.Errorf("dbtoaster: %w", err)
		}
	}
	tm.done()
	objs := readRuntime().allocObjs - objs0
	lc.vals["dbtoaster.ontuple_ns"] = tm.nsPerCall()
	lc.vals["dbtoaster.allocs_per_tuple"] = float64(objs) / float64(max(len(task), 1))
	lc.vals["dbtoaster.state_mb"] = float64(aj.MemSize()) / 1e6
	return nil
}

// localjoin replays one joiner task's interleaved input through the
// traditional operator on encoded rows.
func (lc *layerCtx) localjoin(buf *spanBuf, parent int64, in *layerInput, task []arrival) error {
	h := buf.open("layer.localjoin", parent)
	defer buf.close(h)
	var j *localjoin.Traditional
	if in.tiered {
		j = localjoin.NewTraditionalTiered(in.graph, slab.TierConfig{
			SegmentRows: replaySegRows, Store: recovery.NewMemStore(), Pressure: slab.NewPressure(in.capBytes), KeyPrefix: "replay",
		})
	} else {
		j = localjoin.NewTraditional(in.graph)
	}
	rows := make([][]byte, len(task))
	for i, a := range task {
		rows[i] = wire.Encode(nil, in.rels[a.rel][a.idx])
	}
	var results int64
	emit := func([]byte) error { results++; return nil }
	var cur wire.Cursor
	tm := newTimer(buf, "localjoin.Traditional.OnRow", buf.id(h))
	for i, a := range task {
		tm.begin()
		err := j.OnRow(a.rel, rows[i], &cur, emit)
		tm.end()
		if err != nil {
			return fmt.Errorf("localjoin: %w", err)
		}
	}
	tm.done()
	j.ReleaseState()
	lc.vals["localjoin.onrow_ns"] = tm.nsPerCall()
	lc.vals["localjoin.results_per_row"] = float64(results) / float64(max(len(task), 1))
	return nil
}

// keyBytes encodes each row's key columns.
func keyBytes(rows []types.Tuple, cols []int) [][]byte {
	out := make([][]byte, len(rows))
	var cur wire.Cursor
	var enc []byte
	for i, r := range rows {
		enc = wire.Encode(enc[:0], r)
		if err := cur.Reset(enc); err != nil {
			panic(err) // a row wire.Encode just produced always parses
		}
		out[i] = cur.KeyBytes(nil, cols...)
	}
	return out
}

// index builds a RefHash over the build relation's keys and probes it
// with the probe relation's keys. It returns each probe's verified
// matching refs, which the slab replay reads back in probe order.
func (lc *layerCtx) index(buf *spanBuf, parent int64, in *layerInput) ([][]uint32, error) {
	h := buf.open("layer.index", parent)
	defer buf.close(h)
	build := keyBytes(in.rels[in.buildRel], in.buildCols)
	probe := keyBytes(in.rels[in.probeRel], in.probeCols)
	rh := index.NewRefHash()
	ins := newTimer(buf, "index.RefHash.Insert", buf.id(h))
	for i, k := range build {
		ins.begin()
		rh.Insert(index.BytesHash(k), uint32(i))
		ins.end()
	}
	ins.done()
	pr := newTimer(buf, "index.RefHash.AppendRefs", buf.id(h))
	cands := make([][]uint32, len(probe))
	var n int64
	for i, k := range probe {
		pr.begin()
		cands[i] = rh.AppendRefs(nil, index.BytesHash(k))
		pr.end()
		n += int64(len(cands[i]))
	}
	pr.done()
	var matches int64
	for i, k := range probe {
		kept := cands[i][:0]
		for _, r := range cands[i] {
			if bytes.Equal(build[r], k) {
				kept = append(kept, r)
			}
		}
		cands[i] = kept
		matches += int64(len(kept))
	}
	lc.vals["index.insert_ns"] = ins.nsPerCall()
	lc.vals["index.probe_ns"] = pr.nsPerCall()
	lc.vals["index.candidates_per_match"] = ratio(n, matches)
	return cands, nil
}

// slab appends the build relation to a tiered arena under a fixed cap,
// times Maintain, then reads up to replayRowReads matching rows back in
// probe order, faulting spilled segments in. Segments spill to the
// in-memory store, as in spill-capped, so the times are the slab layer's
// own; the file-backed store is timed by the recovery replay.
func (lc *layerCtx) slab(buf *spanBuf, parent int64, in *layerInput, refs [][]uint32) error {
	h := buf.open("layer.slab", parent)
	defer buf.close(h)
	a := slab.New()
	a.EnableTier(slab.TierConfig{SegmentRows: replaySegRows, Store: recovery.NewMemStore(), Pressure: slab.NewPressure(replayArenaCap), KeyPrefix: "replay"})
	defer a.ReleaseTier()
	ap := newTimer(buf, "slab.Arena.AppendEncoded", buf.id(h))
	mt := newTimer(buf, "slab.Arena.Maintain", buf.id(h))
	var enc []byte
	for i, r := range in.rels[in.buildRel] {
		enc = wire.Encode(enc[:0], r)
		ap.begin()
		a.AppendEncoded(enc)
		ap.end()
		if i%replayBatch == replayBatch-1 {
			mt.begin()
			a.Maintain()
			mt.end()
		}
	}
	ap.done()
	mt.done()
	faults0 := a.TierStats().Faults
	rb := newTimer(buf, "slab.Arena.RowBytes", buf.id(h))
	for _, rs := range refs {
		for _, r := range rs {
			if rb.calls == replayRowReads {
				break
			}
			rb.begin()
			row := a.RowBytes(slab.Ref(r))
			rb.end()
			if len(row) == 0 {
				return fmt.Errorf("slab: ref %d read back empty", r)
			}
		}
	}
	rb.done()
	faults := a.TierStats().Faults - faults0
	lc.vals["slab.maintain_ns"] = mt.nsPerCall()
	lc.vals["slab.spilled_rowbytes_ns"] = rb.nsPerCall()
	lc.vals["slab.cache_hit_ratio"] = 1 - ratio(faults, rb.calls)
	return nil
}

// recovery writes and reads back segment-sized blobs of the build
// relation's encoded rows through the disk segment store.
func (lc *layerCtx) recovery(buf *spanBuf, parent int64, in *layerInput) error {
	h := buf.open("layer.recovery", parent)
	defer buf.close(h)
	store, err := recovery.NewDiskStore(filepath.Join(lc.dir, "replay-recovery"))
	if err != nil {
		return err
	}
	rows := in.rels[in.buildRel]
	var blobs [][]byte
	for i := 0; i+replaySegRows <= len(rows) && len(blobs) < replaySegments; i += replaySegRows {
		var payload []byte
		offs := []uint32{0}
		for _, r := range rows[i : i+replaySegRows] {
			payload = wire.Encode(payload, r)
			offs = append(offs, uint32(len(payload)))
		}
		blobs = append(blobs, slab.AppendSegment(nil, offs, payload))
	}
	if len(blobs) == 0 {
		return fmt.Errorf("recovery: fewer than %d build rows", replaySegRows)
	}
	put := newTimer(buf, "recovery.DiskStore.PutSegment", buf.id(h))
	for i, b := range blobs {
		put.begin()
		err := store.PutSegment(fmt.Sprintf("seg-%d", i), b)
		put.end()
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
	}
	put.done()
	get := newTimer(buf, "recovery.DiskStore.GetSegment", buf.id(h))
	for i, b := range blobs {
		get.begin()
		got, ok, err := store.GetSegment(fmt.Sprintf("seg-%d", i))
		get.end()
		if err != nil || !ok || !bytes.Equal(got, b) {
			return fmt.Errorf("recovery: segment %d did not read back (ok=%v err=%v)", i, ok, err)
		}
	}
	get.done()
	lc.vals["recovery.put_segment_us"] = put.nsPerCall() / 1e3
	lc.vals["recovery.get_segment_us"] = get.nsPerCall() / 1e3
	return nil
}

// serve publishes the workload's result rows to a Hub with replaySubs
// coalescing subscribers draining concurrently.
func (lc *layerCtx) serve(buf *spanBuf, parent int64, in *layerInput) {
	h := buf.open("layer.serve", parent)
	defer buf.close(h)
	hub := serve.NewHub()
	var wg sync.WaitGroup
	for i := 0; i < replaySubs; i++ {
		sub := hub.Subscribe(serve.SubOptions{Policy: serve.CoalesceDeltas}, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.C() {
			}
		}()
	}
	bs := batches(in.results)
	tm := newTimer(buf, "serve.Hub.Publish", buf.id(h))
	var rows int64
	for rows < replayHubRows {
		for _, b := range bs {
			tm.begin()
			hub.Publish(b)
			tm.end()
			rows += int64(len(b))
		}
	}
	tm.done()
	hub.Close(nil)
	wg.Wait()
	lc.vals["serve.publish_ns_per_row"] = float64(tm.total.Nanoseconds()) / float64(rows)
}

// interleave merges relation streams by their position fraction, the
// order concurrently running closed-loop sources reach a joiner.
func interleave(sizes ...int) []arrival {
	total := 0
	for _, n := range sizes {
		total += n
	}
	out := make([]arrival, 0, total)
	for rel, n := range sizes {
		for i := 0; i < n; i++ {
			out = append(out, arrival{rel, i})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		fa := float64(out[a].idx) / float64(sizes[out[a].rel])
		fb := float64(out[b].idx) / float64(sizes[out[b].rel])
		return fa < fb
	})
	return out
}
