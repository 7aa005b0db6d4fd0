package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call made by the benchmark into a layer of the engine.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent int64
	name       string
	run        int
	start, end int64
}

// tracer keeps spans in memory until the benchmark ends. Each goroutine
// that records spans owns one spanBuf, so recording takes no lock. A nil
// tracer (and the nil spanBufs it hands out) records nothing, which is how
// untraced runs pay almost no cost for the instrumented call sites.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
	run   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRun tags spans opened from now on with run id r (one id per measured
// iteration or replay).
func (t *tracer) setRun(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = r
	t.mu.Unlock()
}

// buf returns a span buffer for one goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{tr: t, idx: int64(len(t.bufs) + 1), run: t.run}
	t.bufs = append(t.bufs, b)
	return b
}

type spanBuf struct {
	tr    *tracer
	idx   int64
	seq   int64
	run   int
	spans []span
}

// open starts a span and returns its handle (-1 on a nil buffer).
func (b *spanBuf) open(name string, parent int64) int {
	if b == nil {
		return -1
	}
	b.seq++
	b.spans = append(b.spans, span{
		id: b.idx<<40 | b.seq, parent: parent, name: name, run: b.run,
		start: int64(time.Since(b.tr.epoch)),
	})
	return len(b.spans) - 1
}

// close ends the span opened as h.
func (b *spanBuf) close(h int) {
	if b == nil {
		return
	}
	b.spans[h].end = int64(time.Since(b.tr.epoch))
}

// id returns the span id of handle h, for use as a parent (0 = root).
func (b *spanBuf) id(h int) int64 {
	if b == nil || h < 0 {
		return 0
	}
	return b.spans[h].id
}

// all returns every recorded span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	name    string
	count   int
	totalNS int64
	selfNS  int64
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval covered by its children (the union, since children may run
// concurrently).
func selfTimes(spans []span) []int64 {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	for i, s := range spans {
		d := s.end - s.start
		kids := children[s.id]
		if len(kids) == 0 {
			self[i] = d
			continue
		}
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		curLo, curHi = -1, -1
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = d - covered
	}
	return self
}

// summarize groups spans by name, in order of first appearance.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	var order []string
	for i, s := range spans {
		sum := byName[s.name]
		if sum == nil {
			sum = &spanSummary{name: s.name}
			byName[s.name] = sum
			order = append(order, s.name)
		}
		sum.count++
		sum.totalNS += s.end - s.start
		sum.selfNS += self[i]
	}
	out := make([]spanSummary, len(order))
	for i, n := range order {
		out[i] = *byName[n]
	}
	return out
}

// writeSpans writes every span, one per line, with its self time.
func writeSpans(path, header string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	self := selfTimes(spans)
	fmt.Fprintf(w, "# %s\n# id,parent,run,name,start_ns,end_ns,self_ns\n", header)
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.id, s.parent, s.run, s.name, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
