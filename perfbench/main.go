// Command perfbench is the repository's benchmark. It runs one named
// workload against the engine for a fixed time, checks every output
// against a map-based reference computed from the same seeded inputs, and
// prints every metric with its unit. The last line of standard output is a
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload tpch9-agg --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics: after one untimed warm-up that
// probes the heap, it repeats the workload until --seconds have passed,
// with a round of set-up-only iterations before each, and reports medians.
// --trace 1
// alternates untraced and traced iterations instead, replays each layer's
// public functions over the workload's rows, writes every span to a file
// under --out and reports the per-layer metrics. The exit code is non-zero
// when any output was wrong or any run failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one named input set and query the benchmark can run.
type workload interface {
	// prepare generates every input from seed and computes the reference
	// result. It runs before any timing starts.
	prepare(seed int64)
	// events is the number of input rows one iteration feeds the engine.
	events() int
	// iterate runs the workload once (or only its set-up, when
	// it.setupOnly) and fills it.
	iterate(it *iteration) error
	// layers replays each layer's public functions over the workload's
	// rows and records the per-layer metrics.
	layers(lc *layerCtx) error
	// referenceTime reports how long the single-threaded reference took.
	referenceTime() time.Duration
}

var workloads = map[string]func() workload{
	"tpch9-agg":    func() workload { return &tpch9{} },
	"serve-stream": func() workload { return &serveStream{} },
	"spill-capped": func() workload { return &spillCapped{} },
}

func main() {
	name := flag.String("workload", "", "workload to run: tpch9-agg, serve-stream or spill-capped")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for spill files and span files")
	flag.Parse()

	mk := workloads[*name]
	if mk == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*out, "run-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{name: *name, w: mk(), seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), dir: dir, out: *out}
	var res *result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench drives one invocation.
type bench struct {
	name   string
	w      workload
	seed   int64
	budget time.Duration
	dir    string
	out    string

	attempted, failed int64
	problems          []string

	// setupRounds makes do run a round of set-up-only iterations before
	// each full one; setups collects their set-up times.
	setupRounds bool
	setups      []float64
}

// setupsPerRound is how many set-up-only iterations an end-to-end run
// makes before each full iteration. Spreading them over the whole run, not
// making them in one burst at its start, lets the setup_s median ride out
// the host's slower and faster spells the way the other medians do.
const setupsPerRound = 8

// iteration is one run of a workload and what it measured.
type iteration struct {
	setupOnly bool
	tr        *tracer

	setup    time.Duration // iteration start -> first spout Next
	measured time.Duration // first Next -> complete result
	cpu      time.Duration // process CPU over the measured interval
	latMS    []float64     // event-to-result latency samples
	phaseMS  [2][]float64  // open loop: latency samples per rate phase

	attempted, failed int64
	problems          []string

	rt0, rt1 rtSnapshot
	// probeHeap asks the sources to probe the live heap at end of input;
	// liveHeap is that reading and baseHeap the live heap (the inputs)
	// before the iteration.
	probeHeap          bool
	liveHeap, baseHeap uint64
	info               runInfo
}

// fail records one wrong, missing or extra result (n of them) or one
// failed query.
func (it *iteration) fail(n int64, format string, args ...any) {
	it.failed += n
	it.problems = append(it.problems, fmt.Sprintf(format, args...))
}

// do runs one iteration, from a settled heap unless it only sets up. With
// setupRounds, a full iteration is preceded by a round of set-up-only ones
// on the settled heap.
func (b *bench) do(it *iteration) error {
	if !it.setupOnly {
		it.baseHeap = settleHeap()
		for i := 0; b.setupRounds && i < setupsPerRound; i++ {
			s := &iteration{setupOnly: true}
			if err := b.do(s); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			b.setups = append(b.setups, s.setup.Seconds())
		}
	}
	it.rt0 = readRuntime()
	err := b.w.iterate(it)
	it.rt1 = readRuntime()
	b.attempted += it.attempted
	b.failed += it.failed
	b.problems = append(b.problems, it.problems...)
	return err
}

func (b *bench) endToEnd() (*result, error) {
	b.w.prepare(b.seed)
	b.setupRounds = true
	// The first full iteration warms caches up and probes the heap at end
	// of input; its forced collection would distort timing, so it is not
	// timed.
	start := time.Now()
	warm := &iteration{probeHeap: true}
	if err := b.do(warm); err != nil {
		return nil, err
	}
	if warm.liveHeap == 0 {
		return nil, fmt.Errorf("the heap probe did not run")
	}
	liveMB := float64(int64(warm.liveHeap)-int64(warm.baseHeap)) / 1e6
	fmt.Printf("warm-up: live heap at end of input %.2f MB above %.2f MB of inputs\n", liveMB, float64(warm.baseHeap)/1e6)
	var evs, cpus, p50s, p99s []float64
	var phases [2][]float64
	samples := 0
	for n := 0; n == 0 || time.Since(start) < b.budget; n++ {
		it := &iteration{}
		if err := b.do(it); err != nil {
			return nil, err
		}
		b.setups = append(b.setups, it.setup.Seconds())
		evs = append(evs, float64(b.w.events())/it.measured.Seconds())
		cpus = append(cpus, float64(it.cpu.Microseconds())/float64(b.w.events()))
		samples += len(it.latMS)
		p50s = append(p50s, quantile(it.latMS, 0.50))
		p99s = append(p99s, quantile(it.latMS, 0.99))
		phases[phaseLow] = append(phases[phaseLow], it.phaseMS[phaseLow]...)
		phases[phaseHigh] = append(phases[phaseHigh], it.phaseMS[phaseHigh]...)
		fmt.Printf("iteration %d: setup %.4f s, measured %.3f s, %.0f events/s, cpu %.3f us/event, gc cycles %d",
			n, it.setup.Seconds(), it.measured.Seconds(), evs[n], cpus[n], it.rt1.gcCycles-it.rt0.gcCycles)
		if p := it.info.pressure; p != nil {
			fmt.Printf(", spills %d, segment faults %d, throttles %d, peak resident %.1f%% of cap",
				p.Spills, p.SegmentFaults, p.ThrottleEvents, 100*float64(p.PeakResident)/float64(p.CapBytes))
		}
		fmt.Println()
	}
	vals := map[string]float64{
		"setup_s":          median(b.setups),
		"events_per_s":     median(evs),
		"cpu_us_per_event": median(cpus),
		"live_heap_mb":     liveMB,
		"latency_p50_ms":   median(p50s),
		"latency_p99_ms":   median(p99s),
	}
	fmt.Printf("latency: medians of per-iteration percentiles; %d samples over %d iterations (each p99 has ~%d beyond it)\n",
		samples, len(evs), samples/len(evs)/100)
	for p, name := range []string{"low", "high"} {
		if xs := phases[p]; len(xs) > 0 {
			limit := latencyLimitMS[p]
			p99 := quantile(xs, 0.99)
			fmt.Printf("phase %-4s: p50 %.2f ms, p99 %.2f ms, %d samples, p99 limit %.0f ms met=%v\n",
				name, quantile(xs, 0.5), p99, len(xs), limit, p99 <= limit)
		}
	}
	return b.finish(endToEnd, vals), nil
}

// finish reports problems, prints every declared metric with its unit and
// builds the result line.
func (b *bench) finish(decls []metricDecl, vals map[string]float64) *result {
	for _, p := range b.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	res := &result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range decls {
		v, ok := vals[d.Name]
		if !ok {
			res.Correct = false
			fmt.Printf("CHECK FAILED: metric %s was not measured\n", d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-38s %14.6g %-6s (%s, %s is better; %s)\n", d.Name, v, d.Unit, d.Class, d.Better, d.Note)
	}
	fmt.Printf("checked: %d attempted, %d failed\n", b.attempted, b.failed)
	return res
}

// tracedPairs is how many untraced and traced iterations a traced run
// alternates. Every spout Next is a span, so traced iterations are kept
// few; the comparison gives trace.overhead_frac.
const tracedPairs = 2

func (b *bench) traced() (*result, error) {
	b.w.prepare(b.seed)
	tr := newTracer()
	var plain, traced []float64
	var last *iteration
	for n := 0; n < 2*tracedPairs; n++ {
		it := &iteration{}
		if n%2 == 1 {
			it.tr = tr
			tr.setRun(n)
		}
		if err := b.do(it); err != nil {
			return nil, err
		}
		if it.tr != nil {
			traced = append(traced, it.measured.Seconds())
			last = it
		} else {
			plain = append(plain, it.measured.Seconds())
		}
	}
	vals := map[string]float64{
		"trace.overhead_frac":                 median(traced)/median(plain) - 1,
		"baseline.single_thread_events_per_s": float64(b.w.events()) / b.w.referenceTime().Seconds(),
	}
	last.info.report(vals, last, b.w.events())
	tr.setRun(-1)
	lc := &layerCtx{tr: tr, vals: vals, dir: b.dir}
	if err := b.w.layers(lc); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	spans := tr.all()
	path := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.csv", b.name, b.seed))
	if err := writeSpans(path, fmt.Sprintf("workload=%s seed=%d", b.name, b.seed), spans); err != nil {
		return nil, err
	}
	sums := summarize(spans)
	sort.Slice(sums, func(i, j int) bool { return sums[i].selfNS > sums[j].selfNS })
	fmt.Printf("%d spans written to %s; self time by span name:\n", len(spans), path)
	for _, s := range sums {
		fmt.Printf("  %-34s %9d spans %12.3f ms total %12.3f ms self\n", s.name, s.count, float64(s.totalNS)/1e6, float64(s.selfNS)/1e6)
	}
	return b.finish(perLayer, vals), nil
}

// latencyLimitMS is the fixed p99 latency limit of each serve-stream rate
// phase (low, high). A phase reports whether its p99 met the limit.
var latencyLimitMS = [2]float64{250, 150}
