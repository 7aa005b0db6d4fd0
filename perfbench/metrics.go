package main

// Metric classes. End-to-end metrics are what a user of the engine sees and
// carry a regression bound; per-layer metrics come from the traced run and
// say where time goes; informational metrics give context and gate nothing.
const (
	classEndToEnd = "end_to_end"
	classPerLayer = "per_layer"
	classInfo     = "informational"
)

// metricDecl declares one metric explicitly: its unit, which direction is
// better and its class are never inferred from the name. Note says how an
// end-to-end metric is measured, and for any other metric which end-to-end
// metric on which workload a change to its layer should move.
// BENCHMARK.json lists the same metrics (end-to-end ones under end_to_end,
// the rest under per_layer); TestDeclarationsMatchBenchmarkJSON keeps the
// two in step.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Class  string
	Bound  float64 // end-to-end only: allowed worsening, as a share of the median
	Note   string
}

var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Class: classEndToEnd, Bound: 0.25,
		Note: "from the start of an iteration (inputs already generated) to the first spout Next: plan build, engine start, Register, Subscribe"},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Class: classEndToEnd, Bound: 0.25,
		Note: "input rows / (first Next -> complete, checked result); on serve-stream the offered rate bounds it"},
	{Name: "cpu_us_per_event", Unit: "us", Better: "lower", Class: classEndToEnd, Bound: 0.25,
		Note: "process user+sys CPU over the measured interval per input row"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Class: classEndToEnd, Bound: 0.25,
		Note: "live heap after a full collection once every source has sent its last row (engine state plus results so far), above the inputs the benchmark holds"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Class: classEndToEnd, Bound: 0.25,
		Note: "event-to-result latency, median: serve-stream = subscriber receipt - later due time of the joined rows; closed loop = result available - row emitted"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Class: classEndToEnd, Bound: 0.25,
		Note: "event-to-result latency, 99th percentile (same definition as latency_p50_ms)"},
}

var perLayer = []metricDecl{
	{"core.joiner_max_over_avg", "ratio", "lower", classPerLayer, 0, "events_per_s on tpch9-agg"},
	{"core.replication_factor", "ratio", "lower", classPerLayer, 0, "events_per_s on tpch9-agg"},
	{"core.targets_ns_per_row", "ns", "lower", classPerLayer, 0, "events_per_s on tpch9-agg"},
	{"wire.encode_ns_per_row", "ns", "lower", classPerLayer, 0, "cpu_us_per_event on all"},
	{"wire.bytes_per_row", "B", "lower", classPerLayer, 0, "cpu_us_per_event on all"},
	{"ops.pre_ns_per_row", "ns", "lower", classPerLayer, 0, "cpu_us_per_event on tpch9-agg and serve-stream"},
	{"ops.pre_selectivity", "ratio", "lower", classInfo, 0, "context: share of rows the workload's pipeline keeps"},
	{"dataflow.rows_per_batch", "rows", "higher", classPerLayer, 0, "latency_p50_ms against cpu_us_per_event on serve-stream (idle-flush trade-off)"},
	{"dataflow.bytes_out_per_event", "B", "lower", classPerLayer, 0, "cpu_us_per_event on all"},
	{"dataflow.vec_row_frac", "ratio", "higher", classPerLayer, 0, "cpu_us_per_event on all"},
	{"dataflow.source_gap_ns", "ns", "lower", classPerLayer, 0, "events_per_s on tpch9-agg and spill-capped"},
	{"dbtoaster.ontuple_ns", "ns", "lower", classPerLayer, 0, "events_per_s, cpu_us_per_event on tpch9-agg; no change elsewhere"},
	{"dbtoaster.allocs_per_tuple", "count", "lower", classPerLayer, 0, "cpu_us_per_event, live_heap_mb on tpch9-agg"},
	{"dbtoaster.state_mb", "MB", "lower", classPerLayer, 0, "live_heap_mb on tpch9-agg"},
	{"localjoin.onrow_ns", "ns", "lower", classPerLayer, 0, "latency_p99_ms on serve-stream, events_per_s on spill-capped; nothing on tpch9-agg"},
	{"localjoin.results_per_row", "ratio", "higher", classInfo, 0, "context: join fan-out of the replayed task"},
	{"index.insert_ns", "ns", "lower", classPerLayer, 0, "via localjoin.onrow_ns: serve-stream, spill-capped"},
	{"index.probe_ns", "ns", "lower", classPerLayer, 0, "via localjoin.onrow_ns: serve-stream, spill-capped"},
	{"index.candidates_per_match", "ratio", "lower", classPerLayer, 0, "via localjoin.onrow_ns: serve-stream, spill-capped"},
	{"slab.spills", "count", "lower", classPerLayer, 0, "events_per_s on spill-capped; zero on the others"},
	{"slab.segment_faults", "count", "lower", classPerLayer, 0, "events_per_s on spill-capped; zero on the others"},
	{"slab.faults_per_spill", "ratio", "lower", classPerLayer, 0, "events_per_s on spill-capped"},
	{"slab.peak_resident_over_cap", "ratio", "lower", classPerLayer, 0, "live_heap_mb on spill-capped (must stay <= 1)"},
	{"slab.maintain_ns", "ns", "lower", classPerLayer, 0, "events_per_s on spill-capped"},
	{"slab.spilled_rowbytes_ns", "ns", "lower", classPerLayer, 0, "events_per_s on spill-capped"},
	{"slab.cache_hit_ratio", "ratio", "higher", classPerLayer, 0, "events_per_s on spill-capped"},
	{"recovery.put_segment_us", "us", "lower", classPerLayer, 0, "events_per_s on spill-capped"},
	{"recovery.get_segment_us", "us", "lower", classPerLayer, 0, "events_per_s on spill-capped"},
	{"serve.encodes_per_row", "ratio", "lower", classPerLayer, 0, "cpu_us_per_event on serve-stream; nothing elsewhere"},
	{"serve.rows_per_frame", "rows", "higher", classPerLayer, 0, "latency_p50_ms on serve-stream"},
	{"serve.stalls", "count", "lower", classPerLayer, 0, "latency_p99_ms on serve-stream"},
	{"serve.rows_per_delta", "rows", "higher", classPerLayer, 0, "latency_p99_ms, cpu_us_per_event on serve-stream"},
	{"serve.dropped_rows", "count", "lower", classPerLayer, 0, "latency_p99_ms on serve-stream"},
	{"serve.publish_ns_per_row", "ns", "lower", classPerLayer, 0, "latency_p99_ms, cpu_us_per_event on serve-stream"},
	{"runtime.gc_cpu_frac", "ratio", "lower", classPerLayer, 0, "cpu_us_per_event on tpch9-agg"},
	{"runtime.alloc_bytes_per_event", "B", "lower", classPerLayer, 0, "cpu_us_per_event, live_heap_mb on tpch9-agg"},
	{"gen.late_p99_ms", "ms", "lower", classInfo, 0, "validity: how late the generator ran (open loop: behind its due time; closed loop: kept waiting by the engine)"},
	{"baseline.single_thread_events_per_s", "1/s", "higher", classInfo, 0, "context: the single-threaded map-based reference on the same inputs"},
	{"trace.overhead_frac", "ratio", "lower", classInfo, 0, "context: traced iteration time over untraced, minus 1"},
}

// result is what one invocation prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
