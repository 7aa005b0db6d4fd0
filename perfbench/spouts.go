package main

import (
	"sync"
	"sync/atomic"
	"time"

	"squall/internal/dataflow"
	"squall/internal/types"
)

// stampEvery is how often (in rows) a closed-loop spout records when it
// handed a row to the engine. Closed-loop latency is derived from these
// samples, so Next stays nearly free on the measured path.
const stampEvery = 64

// feed is what every source of one iteration shares: when the first row
// was asked for (the end of set-up), the emission record, the tracer and
// the heap probe.
type feed struct {
	once     sync.Once
	firstAt  time.Time
	firstCPU time.Duration

	tr        *tracer
	parent    int64 // span the sources' Next spans hang under
	setupOnly bool
	probe     *heapProbe

	mu     sync.Mutex
	stamps []time.Time
	bufs   []*spanBuf // one per source, holding its Next spans
}

// newFeed prepares the sources of it. sources is how many there are, so
// the heap probe knows when the last one has finished.
func newFeed(it *iteration, parent int64, sources int) *feed {
	f := &feed{tr: it.tr, parent: parent, setupOnly: it.setupOnly}
	if it.probeHeap {
		f.probe = newHeapProbe(sources)
	}
	return f
}

// first marks the first Next of the iteration across all its sources.
func (f *feed) first() {
	f.once.Do(func() {
		f.firstAt = time.Now()
		f.firstCPU = cpuTime()
	})
}

// measure fills it's set-up and measured intervals, the latter ending now,
// and returns the end time.
func (f *feed) measure(it *iteration, start time.Time) time.Time {
	end := time.Now()
	it.cpu = cpuTime() - f.firstCPU
	it.setup = f.firstAt.Sub(start)
	it.measured = end.Sub(f.firstAt)
	if f.probe != nil {
		it.liveHeap = f.probe.live.Load()
	}
	return end
}

// buf returns a span buffer for one source and keeps it for the per-layer
// gap metrics.
func (f *feed) buf() *spanBuf {
	b := f.tr.buf()
	if b != nil {
		f.mu.Lock()
		f.bufs = append(f.bufs, b)
		f.mu.Unlock()
	}
	return b
}

// ended records a finished source's stamps and lets the heap probe run.
func (f *feed) ended(stamps []time.Time) {
	f.mu.Lock()
	f.stamps = append(f.stamps, stamps...)
	f.mu.Unlock()
	f.probe.sourceDone()
}

// closedSpout replays pre-generated rows as fast as the engine accepts
// them (a closed loop: the next row is offered once the engine has taken
// the previous one). gate, when set, is waited on before the first row;
// done runs when the stream ends. In a set-up-only iteration the stream
// ends at the first Next, which is how set-up is measured without running
// the query.
type closedSpout struct {
	f    *feed
	rows []types.Tuple
	gate <-chan struct{}
	done func()

	started bool
	ended   bool
	pos     int
	stamps  []time.Time
	buf     *spanBuf
}

func (s *closedSpout) Next() (types.Tuple, bool) {
	if !s.started {
		s.started = true
		s.f.first()
		if s.gate != nil && !s.f.setupOnly {
			<-s.gate
		}
		s.buf = s.f.buf()
	}
	h := s.buf.open("spout.Next", s.f.parent)
	defer s.buf.close(h)
	if s.f.setupOnly || s.pos >= len(s.rows) {
		if !s.ended {
			s.ended = true
			s.f.ended(s.stamps)
			if s.done != nil {
				s.done()
			}
		}
		return nil, false
	}
	if s.pos%stampEvery == 0 {
		s.stamps = append(s.stamps, time.Now())
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true
}

// closedSource builds the spout factory of one closed-loop source (one task).
func closedSource(f *feed, rows []types.Tuple, gate <-chan struct{}, done func()) dataflow.SpoutFactory {
	return func(task, ntasks int) dataflow.Spout {
		return &closedSpout{f: f, rows: rows, gate: gate, done: done}
	}
}

// schedule is the open-loop arrival plan shared by every source of an
// iteration: rows [0, nLow) are due at lowRate rows/s, the rest at
// highRate, counted from t0.
type schedule struct {
	t0                atomic.Int64 // unix nanoseconds; set once the engine is ready
	nLow              int
	lowRate, highRate float64
}

// offset is row i's due time relative to t0.
func (s *schedule) offset(i int) time.Duration {
	if i < s.nLow {
		return time.Duration(float64(i) / s.lowRate * 1e9)
	}
	return time.Duration((float64(s.nLow)/s.lowRate + float64(i-s.nLow)/s.highRate) * 1e9)
}

// due is row i's absolute due time in unix nanoseconds.
func (s *schedule) due(i int) int64 { return s.t0.Load() + int64(s.offset(i)) }

// latencyMS is the event-to-result latency of a result whose later-due
// input row is row i, received at unix nanosecond recv: timed from when the
// row was due, not from when the generator got to send it, so a stalled
// generator shows up in latency.
func (s *schedule) latencyMS(i int, recv int64) float64 {
	return float64(recv-s.due(i)) / 1e6
}

// phase names the rate phase row i belongs to.
func (s *schedule) phase(i int) int {
	if i < s.nLow {
		return phaseLow
	}
	return phaseHigh
}

const (
	phaseLow = iota
	phaseHigh
)

// openSpout emits row i no earlier than its due time, whatever the engine
// does (an open loop). When the engine holds the generator up, later rows
// go out late and their latency, timed from the due time, shows the stall.
// late records how far behind its due time each row was handed over.
type openSpout struct {
	f     *feed
	rows  []types.Tuple
	sched *schedule
	late  []time.Duration
	buf   *spanBuf
	pos   int
	ended bool
}

func (s *openSpout) Next() (types.Tuple, bool) {
	if s.pos == 0 {
		s.f.first()
	}
	h := s.buf.open("spout.Next", s.f.parent)
	defer s.buf.close(h)
	if s.f.setupOnly || s.pos >= len(s.rows) {
		if !s.ended {
			s.ended = true
			s.f.ended(nil)
		}
		return nil, false
	}
	due := s.sched.due(s.pos)
	if d := due - time.Now().UnixNano(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	s.late = append(s.late, time.Duration(time.Now().UnixNano()-due))
	t := s.rows[s.pos]
	s.pos++
	return t, true
}
