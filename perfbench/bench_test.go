package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"squall/internal/types"
)

// A generator held up for a known interval must show that interval in
// latency: latency is timed from each row's due time, not from when the
// row was finally handed over.
func TestOpenLoopStallShowsInLatency(t *testing.T) {
	const rate, rows, stallAt = 1000.0, 100, 20
	const stall = 60 * time.Millisecond
	data := make([]types.Tuple, rows)
	for i := range data {
		data[i] = types.Tuple{types.Int(int64(i))}
	}
	sched := &schedule{nLow: rows, lowRate: rate, highRate: rate}
	sched.t0.Store(time.Now().UnixNano())
	sp := &openSpout{f: newFeed(&iteration{}, 0, 1), rows: data, sched: sched}
	lat := make([]float64, 0, rows)
	for i := 0; ; i++ {
		if i == stallAt {
			time.Sleep(stall) // the consumer stops pulling rows
		}
		row, ok := sp.Next()
		if !ok {
			break
		}
		lat = append(lat, sched.latencyMS(int(row[0].I), time.Now().UnixNano()))
	}
	if len(lat) != rows {
		t.Fatalf("got %d rows, want %d", len(lat), rows)
	}
	stallMS := float64(stall.Milliseconds())
	// The first row after the stall was due 1 ms after the last one sent,
	// so it waited about the whole stall minus that millisecond.
	if got := lat[stallAt]; got < stallMS-2 {
		t.Errorf("row %d latency %.2f ms, want >= %.0f ms (the stall)", stallAt, got, stallMS-2)
	}
	// Rows before the stall went out on time.
	if got := quantile(append([]float64(nil), lat[:stallAt]...), 0.5); got > stallMS/4 {
		t.Errorf("median latency before the stall %.2f ms, want well under %.0f ms", got, stallMS)
	}
	// The backlog drains at full speed, so later rows catch up: the last
	// row is due 40 ms after the stall ended and was not kept waiting.
	if got := lat[rows-1]; got > stallMS/2 {
		t.Errorf("last row latency %.2f ms, want the backlog cleared (< %.0f ms)", got, stallMS/2)
	}
}

// The reference checker must reject a result bag that differs from the
// reference in any way: a missing row, a duplicate, a wrong row or a sum off
// by more than the float tolerance.
func TestCheckerRejectsPerturbedResults(t *testing.T) {
	r := []types.Tuple{{types.Int(1), types.Int(10)}, {types.Int(1), types.Int(11)}, {types.Int(2), types.Int(12)}}
	s := []types.Tuple{{types.Int(1), types.Int(20)}, {types.Int(2), types.Int(21)}, {types.Int(3), types.Int(22)}}
	want := hashJoin(r, s, 0, 0, 1, nil)
	if n := bagSize(want); n != 3 {
		t.Fatalf("reference has %d rows, want 3", n)
	}
	clone := func() bag {
		b := bag{}
		for k, v := range want {
			b[k] = v
		}
		return b
	}
	if d := bagDiff(clone(), want); d != 0 {
		t.Fatalf("identical bags differ by %d", d)
	}
	missing := clone()
	delete(missing, pair{10, 20})
	dup := clone()
	dup[pair{12, 21}]++
	wrong := clone()
	delete(wrong, pair{11, 20})
	wrong[pair{11, 22}] = 1
	for name, got := range map[string]bag{"missing": missing, "duplicate": dup, "wrong": wrong} {
		if d := bagDiff(got, want); d == 0 {
			t.Errorf("%s row: checker accepted the bag", name)
		}
		if d := keysDiff(sortedKeys(got), sortedKeys(want)); d != bagDiff(got, want) {
			t.Errorf("%s row: sorted-key check counts %d differing rows, the bag check %d", name, d, bagDiff(got, want))
		}
	}
	if d := keysDiff(sortedKeys(clone()), sortedKeys(want)); d != 0 {
		t.Errorf("identical results differ by %d sorted keys", d)
	}

	sums := map[int64]float64{1: 100.25, 2: 3e9}
	same := map[int64]float64{1: 100.25 * (1 + sumsRelTol/10), 2: 3e9}
	if d := groupDiff(same, sums); d != 0 {
		t.Errorf("sums within tolerance rejected (%d groups)", d)
	}
	for name, got := range map[string]map[int64]float64{
		"off":     {1: 100.25, 2: 3e9 * (1 + 10*sumsRelTol)},
		"missing": {1: 100.25},
		"extra":   {1: 100.25, 2: 3e9, 3: 1},
	} {
		if d := groupDiff(got, sums); d == 0 {
			t.Errorf("%s group: checker accepted the result", name)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics this program reports,
// with the same units and directions; classes and "should move" targets
// are declared here, next to the code that measures them.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || d.Class != classEndToEnd {
			t.Errorf("end_to_end[%d] = %+v, program declares %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || d.Class == classEndToEnd || d.Note == "" {
			t.Errorf("per_layer[%d] = %+v, program declares %+v", i, m, d)
		}
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
}

// Self time is a span's duration minus the union of its children, which
// may overlap.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 50},
		{id: 4, parent: 1, start: 90, end: 120},
	}
	self := selfTimes(spans)
	// Children cover [10, 50) and [90, 100) inside the parent: 50 ns.
	if self[0] != 50 {
		t.Errorf("parent self time %d, want 50", self[0])
	}
	if self[1] != 30 || self[3] != 30 {
		t.Errorf("leaf self times %d, %d; want their durations", self[1], self[3])
	}
}
