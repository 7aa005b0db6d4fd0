package dataflow

import (
	"sync"
	"testing"

	"squall/internal/recovery"
	"squall/internal/types"
	"squall/internal/wire"
)

// frameGather is a FrameBolt that records whole frames, verifying each one
// carries a parseable column-offset footer before walking its rows.
type frameGather struct {
	mu        sync.Mutex
	rows      []types.Tuple
	viaFrame  int // rows delivered through ExecuteFrame
	viaRow    int
	badFooter int // frames whose footer did not parse
	cur       wire.Cursor
}

func (g *frameGather) Execute(in Input, _ *Collector) error {
	g.mu.Lock()
	g.rows = append(g.rows, in.Tuple)
	g.mu.Unlock()
	return nil
}

func (g *frameGather) ExecuteRow(in RowInput, _ *Collector) error {
	g.mu.Lock()
	g.rows = append(g.rows, in.Cur.Tuple(nil))
	g.viaRow++
	g.mu.Unlock()
	return nil
}

func (g *frameGather) ExecuteFrame(in FrameInput, _ *Collector) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var foot wire.Footer
	if !wire.ParseFooter(in.Frame, &foot) || foot.Count != in.Count {
		g.badFooter++
	}
	n, _, err := wire.EachRow(in.Frame, &g.cur, func(_ []byte) error {
		g.rows = append(g.rows, g.cur.Tuple(nil))
		return nil
	})
	g.viaFrame += n
	return err
}

func (g *frameGather) Finish(*Collector) error { return nil }

// TestVecExecDeliversFooteredFrames runs the packed transport: every flushed
// frame must reach the FrameBolt whole, carrying a valid footer, and the
// vectorized row count must be accounted. Batch size 1 sends one-row frames,
// each with its own footer.
func TestVecExecDeliversFooteredFrames(t *testing.T) {
	for _, batch := range []int{1, 3, 16, 64} {
		rows := packedTestRows(400)
		sinks := make([]*frameGather, 2)
		b := NewBuilder().
			Spout("src", 1, encSpoutFactory(rows)).
			Bolt("sink", 2, func(task, ntasks int) Bolt {
				sinks[task] = &frameGather{}
				return sinks[task]
			}).
			Input("sink", "src", Fields(0))
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(topo, Options{Seed: 5, BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		total := 0
		for _, g := range sinks {
			if g.viaRow != 0 {
				t.Fatalf("batch=%d: %d rows bypassed the frame path", batch, g.viaRow)
			}
			if g.badFooter != 0 {
				t.Fatalf("batch=%d: %d frames arrived without a valid footer", batch, g.badFooter)
			}
			total += g.viaFrame
			for _, r := range g.rows {
				got[r.Key()]++
			}
		}
		if total != len(rows) {
			t.Fatalf("batch=%d: %d rows via frames, want %d", batch, total, len(rows))
		}
		for _, r := range rows {
			if got[r.Key()] == 0 {
				t.Fatalf("batch=%d: row %v lost", batch, r)
			}
			got[r.Key()]--
		}
		if m.TotalVecRows() != int64(len(rows)) {
			t.Fatalf("batch=%d: TotalVecRows %d, want %d", batch, m.TotalVecRows(), len(rows))
		}
	}
}

// recFrameGather is a frameGather that can sit on a recovery-protected
// component; its Repartitioner face keeps no state of its own.
type recFrameGather struct{ frameGather }

func (*recFrameGather) StoredCount(int) int                  { return 0 }
func (*recFrameGather) ExportState(int) []types.Tuple        { return nil }
func (*recFrameGather) ResetForReshape([2]bool) error        { return nil }
func (*recFrameGather) ImportState(int, []types.Tuple) error { return nil }

// TestRecoveryTaskKeepsRowPath pins where whole-frame delivery stays off: a
// recovery-protected task's replay bookkeeping is per row, so footered
// frames reach its FrameBolt row by row and no vectorized rows are
// accounted.
func TestRecoveryTaskKeepsRowPath(t *testing.T) {
	rows := packedTestRows(200)
	sink := &recFrameGather{}
	b := NewBuilder().
		Spout("src", 1, encSpoutFactory(rows)).
		Bolt("sink", 1, func(task, ntasks int) Bolt { return sink }).
		Input("sink", "src", Global())
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pol := &RecoveryPolicy{Component: "sink", RelOf: map[string]int{"src": 0}, NumRels: 1, Store: recovery.NewMemStore(), CheckpointEvery: 64}
	m, err := Run(topo, Options{Seed: 6, BatchSize: 16, Recovery: pol})
	if err != nil {
		t.Fatal(err)
	}
	if sink.viaFrame != 0 || sink.viaRow != len(rows) {
		t.Fatalf("recovery task: %d via frames, %d via rows, want 0/%d", sink.viaFrame, sink.viaRow, len(rows))
	}
	if m.TotalVecRows() != 0 {
		t.Fatalf("recovery task accounted %d vec rows", m.TotalVecRows())
	}
}

// TestVecExecFootersInvisibleToPlainBolt checks a footered frame reaching a
// bolt without the packed faces still decodes to exactly its rows.
func TestVecExecFootersInvisibleToPlainBolt(t *testing.T) {
	rows := packedTestRows(300)
	g := NewGather()
	b := NewBuilder().
		Spout("src", 2, encSpoutFactory(rows)).
		Bolt("sink", 2, g.Factory()).
		Input("sink", "src", Shuffle())
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(topo, Options{Seed: 7, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	if len(g.Rows()) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(g.Rows()), len(rows))
	}
	got := map[string]int{}
	for _, r := range g.Rows() {
		got[r.Key()]++
	}
	for _, r := range rows {
		if got[r.Key()] == 0 {
			t.Fatalf("row %v lost", r)
		}
		got[r.Key()]--
	}
}
