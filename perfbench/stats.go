package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place; an empty
// slice yields NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, so callers keep their order.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metric names read around each measured iteration.
const (
	mLiveHeap    = "/gc/heap/live:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mGCCycles    = "/gc/cycles/total:gc-cycles"
	mCPUGC       = "/cpu/classes/gc/total:cpu-seconds"
	mCPUTotal    = "/cpu/classes/total:cpu-seconds"
	mCPUIdle     = "/cpu/classes/idle:cpu-seconds"
	mCPUScavenge = "/cpu/classes/scavenge/total:cpu-seconds"
)

// rtSnapshot is one read of the runtime metrics the benchmark reports.
type rtSnapshot struct {
	liveHeap, allocBytes, allocObjs, gcCycles uint64
	cpuGC, cpuBusy                            float64
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{
		{Name: mLiveHeap}, {Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCycles},
		{Name: mCPUGC}, {Name: mCPUTotal}, {Name: mCPUIdle}, {Name: mCPUScavenge},
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnapshot{
		liveHeap:   u(0),
		allocBytes: u(1),
		allocObjs:  u(2),
		gcCycles:   u(3),
		cpuGC:      f(4),
		cpuBusy:    f(5) - f(6) - f(7),
	}
}

// heapProbe reads the live heap once every source of an iteration has
// handed over its last row: the last source to finish runs a full
// collection before ending its stream, so the reading holds the engine's
// complete state and results so far, with only the rows still in flight
// beside them. A collection forced mid-run would distort the timing, so
// probed iterations are not timed.
type heapProbe struct {
	sources atomic.Int32
	live    atomic.Uint64
}

func newHeapProbe(sources int) *heapProbe {
	p := &heapProbe{}
	p.sources.Store(int32(sources))
	return p
}

// sourceDone is called by each source as its stream ends.
func (p *heapProbe) sourceDone() {
	if p != nil && p.sources.Add(-1) == 0 {
		p.live.Store(settleHeap())
	}
}

// settleHeap returns the live heap in bytes after two full collections:
// the second frees what sync.Pool caches kept through the first, so the
// reading does not depend on how full the engine's pools happened to be.
func settleHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readRuntime().liveHeap
}
