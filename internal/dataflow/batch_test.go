package dataflow

import (
	"errors"
	"sync"
	"testing"
	"time"

	"squall/internal/types"
)

// runWithWatchdog fails the test instead of hanging forever if a transport
// regression deadlocks the run.
func runWithWatchdog(t *testing.T, topo *Topology, opts Options) (*RunMetrics, error) {
	t.Helper()
	type result struct {
		m   *RunMetrics
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := Run(topo, opts)
		done <- result{m, err}
	}()
	select {
	case r := <-done:
		return r.m, r.err
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked")
		return nil, nil
	}
}

// orderSink records the arrival sequence per (stream, producer task) so
// tests can assert the transport preserves per-pair FIFO order.
type orderSink struct {
	mu   sync.Mutex
	seqs map[[2]interface{}][]int64
}

func newOrderSink() *orderSink {
	return &orderSink{seqs: make(map[[2]interface{}][]int64)}
}

func (s *orderSink) factory() BoltFactory {
	return func(int, int) Bolt {
		return FuncBolt{OnTuple: func(in Input, _ *Collector) error {
			s.mu.Lock()
			key := [2]interface{}{in.Stream, in.FromTask}
			s.seqs[key] = append(s.seqs[key], in.Tuple[0].I)
			s.mu.Unlock()
			return nil
		}}
	}
}

// TestEOSFlushesPartialBatches: with a batch size far above the row count,
// every tuple sits in a pending buffer until EOS — all of them must still
// arrive (flush precedes the EOS marker on the same FIFO inbox), and Finish
// must still observe them.
func TestEOSFlushesPartialBatches(t *testing.T) {
	rows := intRows(10)
	sink := NewGather()
	counter := func(int, int) Bolt {
		n := int64(0)
		return FuncBolt{
			OnTuple:  func(Input, *Collector) error { n++; return nil },
			OnFinish: func(out *Collector) error { return out.Emit(types.Tuple{types.Int(n)}) },
		}
	}
	topo, _ := NewBuilder().
		Spout("src", 2, SliceSpout(rows)).
		Bolt("count", 2, counter).
		Bolt("sink", 1, sink.Factory()).
		Input("count", "src", Shuffle()).
		Input("sink", "count", Global()).
		Build()
	m, err := runWithWatchdog(t, topo, Options{Seed: 1, BatchSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range sink.Rows() {
		total += r[0].I
	}
	if total != 10 {
		t.Errorf("counted %d tuples, want 10 (partial batches lost at EOS?)", total)
	}
	// 10 tuples in flight must have used well under one envelope per tuple...
	if sent, batches := m.TotalSent(), m.TotalBatches(); batches >= sent && sent > 2 {
		t.Errorf("sent %d tuples in %d batches; expected batching", sent, batches)
	}
}

// TestBatchSizeOnePreservesLegacySemantics: batch=1 must deliver one tuple
// per envelope (the per-tuple framing, now one-row batches through the
// ordinary flush path) and keep per-producer-task FIFO order — from a boxed
// source, from a packed RowSpout source (one-row footered frames), and on a
// NoSerialize run (one-tuple batch slices).
func TestBatchSizeOnePreservesLegacySemantics(t *testing.T) {
	const n = 500
	gen := func(i int) types.Tuple { return types.Tuple{types.Int(int64(i))} }
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = gen(i)
	}
	cases := []struct {
		name  string
		spout SpoutFactory
		opts  Options
	}{
		{"boxed", GenSpout(n, gen), Options{Seed: 7, BatchSize: 1}},
		{"packed", encSpoutFactory(rows), Options{Seed: 7, BatchSize: 1}},
		{"noserialize", GenSpout(n, gen), Options{Seed: 7, BatchSize: 1, NoSerialize: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := newOrderSink()
			topo, _ := NewBuilder().
				Spout("src", 3, tc.spout).
				Bolt("sink", 1, sink.factory()).
				Input("sink", "src", Global()).
				Build()
			m, err := runWithWatchdog(t, topo, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if sent, batches := m.TotalSent(), m.TotalBatches(); sent != batches || sent != n {
				t.Errorf("batch=1 sent %d tuples in %d envelopes; want %d, one per envelope", sent, batches, n)
			}
			total := 0
			for key, seq := range sink.seqs {
				total += len(seq)
				for i := 1; i < len(seq); i++ {
					if seq[i] <= seq[i-1] {
						t.Fatalf("pair %v out of order at %d: %v", key, i, seq[:i+1])
					}
				}
			}
			if total != n {
				t.Errorf("delivered %d tuples, want %d", total, n)
			}
		})
	}
}

// TestBatchSizesProduceIdenticalOutput: the delivered multiset and the
// per-origin order must not depend on the batch size — batch=1 (one-row), a
// ragged size, the default, and an everything-in-one-flush size all agree
// tuple for tuple. Sequences are keyed by (mid task, originating src task):
// the engine guarantees FIFO per producer→consumer pair, but not how one
// relay task interleaves tuples arriving from different upstream tasks, so
// comparing whole per-mid-task sequences would be scheduler-dependent.
func TestBatchSizesProduceIdenticalOutput(t *testing.T) {
	const n = 400
	run := func(batch int) map[[2]int64][]int64 {
		// mid tags each tuple with its own task; src origin is recoverable
		// from the value (GenSpout strides: src task k generates i ≡ k mod 2).
		fanout := func(task int, _ int) Bolt {
			return FuncBolt{OnTuple: func(in Input, out *Collector) error {
				return out.Emit(types.Tuple{in.Tuple[0], types.Int(int64(task))})
			}}
		}
		var mu sync.Mutex
		seqs := make(map[[2]int64][]int64)
		sink := func(int, int) Bolt {
			return FuncBolt{OnTuple: func(in Input, _ *Collector) error {
				mu.Lock()
				key := [2]int64{in.Tuple[1].I, in.Tuple[0].I % 2}
				seqs[key] = append(seqs[key], in.Tuple[0].I)
				mu.Unlock()
				return nil
			}}
		}
		topo, _ := NewBuilder().
			Spout("src", 2, GenSpout(n, func(i int) types.Tuple {
				return types.Tuple{types.Int(int64(i))}
			})).
			Bolt("mid", 3, fanout).
			Bolt("sink", 1, sink).
			Input("mid", "src", Fields(0)).
			Input("sink", "mid", Global()).
			Build()
		if _, err := runWithWatchdog(t, topo, Options{Seed: 11, BatchSize: batch}); err != nil {
			t.Fatal(err)
		}
		return seqs
	}
	ref := run(1)
	for _, batch := range []int{3, DefaultBatchSize, 10_000} {
		got := run(batch)
		if len(got) != len(ref) {
			t.Fatalf("batch=%d: %d origin pairs, want %d", batch, len(got), len(ref))
		}
		for key, want := range ref {
			seq := got[key]
			if len(seq) != len(want) {
				t.Fatalf("batch=%d pair %v: %d tuples, want %d", batch, key, len(seq), len(want))
			}
			for i := range want {
				if seq[i] != want[i] {
					t.Fatalf("batch=%d pair %v diverges at %d: got %d want %d",
						batch, key, i, seq[i], want[i])
				}
			}
		}
	}
}

// TestAbortMidBatchDoesNotDeadlock: a bolt error while producers have full
// batches in flight (tiny inboxes, so producers are parked in send) must
// abort the whole run promptly.
func TestAbortMidBatchDoesNotDeadlock(t *testing.T) {
	rows := intRows(50_000)
	boom := errors.New("boom")
	factory := func(int, int) Bolt {
		n := 0
		return FuncBolt{OnTuple: func(Input, *Collector) error {
			n++
			if n == 100 {
				return boom
			}
			return nil
		}}
	}
	topo, _ := NewBuilder().
		Spout("src", 4, SliceSpout(rows)).
		Bolt("b", 2, factory).
		Input("b", "src", Shuffle()).
		Build()
	_, err := runWithWatchdog(t, topo, Options{Seed: 3, BatchSize: 8, ChannelBuf: 1})
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("expected boom, got %v", err)
	}
}

// TestMemoryOverflowFiresWithBatchesInFlight: the per-task budget check must
// still trip while upstream batches are buffered and in flight.
func TestMemoryOverflowFiresWithBatchesInFlight(t *testing.T) {
	rows := intRows(20_000)
	topo, _ := NewBuilder().
		Spout("src", 2, SliceSpout(rows)).
		Bolt("state", 1, func(int, int) Bolt { return &hog{} }).
		Input("state", "src", Shuffle()).
		Build()
	m, err := runWithWatchdog(t, topo, Options{Seed: 4, BatchSize: DefaultBatchSize, ChannelBuf: 2, MemLimitPerTask: 1 << 20})
	if !errors.Is(err, ErrMemoryOverflow) {
		t.Fatalf("expected memory overflow, got %v", err)
	}
	if m == nil || m.Component("state").Tasks[0].MaxMem.Load() == 0 {
		t.Error("partial metrics must survive the abort")
	}
}

// TestBatchedTransportStillCopies: serialized hops must hand fresh copies to
// every destination even when tuples travel in shared batch frames.
func TestBatchedTransportStillCopies(t *testing.T) {
	const n = 100
	var mu sync.Mutex
	var got []types.Tuple
	factory := func(int, int) Bolt {
		return FuncBolt{OnTuple: func(in Input, _ *Collector) error {
			mu.Lock()
			got = append(got, in.Tuple)
			mu.Unlock()
			return nil
		}}
	}
	src := make([]types.Tuple, n)
	for i := range src {
		src[i] = types.Tuple{types.Int(int64(i)), types.Str("payload")}
	}
	topo, _ := NewBuilder().
		Spout("src", 1, SliceSpout(src)).
		Bolt("a", 2, factory).
		Input("a", "src", All()).
		Build()
	m, err := runWithWatchdog(t, topo, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*n {
		t.Fatalf("broadcast delivered %d, want %d", len(got), 2*n)
	}
	for _, g := range got {
		orig := src[g[0].I]
		if !g.Equal(orig) {
			t.Fatalf("tuple mangled over the wire: %v", g)
		}
		if &g[0] == &orig[0] {
			t.Fatal("destination shares memory with the producer")
		}
	}
	if m.TotalBatches() >= m.TotalSent() {
		t.Errorf("sent %d tuples in %d envelopes; expected batching", m.TotalSent(), m.TotalBatches())
	}
}
