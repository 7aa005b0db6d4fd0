// Package enginetest is the engine's differential correctness harness:
// randomized multi-relation workloads run through every engine configuration
// (partitioning scheme x local join x transport batch size x adaptive
// on/off) and compared, as bags, against a single-threaded reference
// nested-loop join. Any divergence — a lost tuple, a duplicated delta, a
// migration that re-emits a pair — shows up as a bag mismatch keyed by the
// offending row.
package enginetest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"squall"
	"squall/internal/dataflow"
	"squall/internal/expr"
	"squall/internal/types"
)

// Workload is one randomized differential scenario: concrete relations plus
// the join graph connecting them.
type Workload struct {
	Seed  int64
	Rels  [][]types.Tuple
	Graph *expr.JoinGraph
	Names []string
}

// RandomWorkload generates numRels relations of rowsPerRel tuples
// (key, payload, seq) with keys drawn from a domain small enough to make
// joins productive. The join graph is an equi chain on the key column;
// withTheta adds an inequality conjunct on the payload columns of the first
// pair, exercising the tree-index probe paths.
func RandomWorkload(seed int64, numRels, rowsPerRel, keyDomain int, withTheta bool) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Seed: seed}
	for rel := 0; rel < numRels; rel++ {
		rows := make([]types.Tuple, rowsPerRel)
		for i := range rows {
			rows[i] = types.Tuple{
				types.Int(int64(rng.Intn(keyDomain))),
				types.Int(int64(rng.Intn(50))),
				types.Int(int64(rel*1_000_000 + i)), // unique per row: bags stay honest
			}
		}
		w.Rels = append(w.Rels, rows)
		w.Names = append(w.Names, fmt.Sprintf("rel%d", rel))
	}
	var conjuncts []expr.JoinConjunct
	for rel := 0; rel+1 < numRels; rel++ {
		conjuncts = append(conjuncts, expr.EquiCol(rel, 0, rel+1, 0))
	}
	if withTheta {
		conjuncts = append(conjuncts, expr.ThetaCol(0, 1, expr.Lt, 1, 1))
	}
	w.Graph = expr.MustJoinGraph(numRels, conjuncts...)
	return w
}

// ReferenceBag computes the join with a single-threaded nested loop over the
// raw relations: the oracle every engine configuration must match.
func (w *Workload) ReferenceBag() map[string]int {
	bag := map[string]int{}
	w.eachJoined(func(assigned []types.Tuple) {
		row := make(types.Tuple, 0, 3*len(assigned))
		for _, t := range assigned {
			row = append(row, t...)
		}
		bag[row.Key()]++
	})
	return bag
}

// AggCell is one group of an aggregate result: its COUNT(*) and SUM.
type AggCell struct {
	Cnt int64
	Sum float64
}

// ReferenceAgg aggregates the nested-loop join by agg's group-by columns —
// the oracle for aggregate views. Groups are keyed by types.Tuple.Key of
// their values; Sum is filled when agg has a SUM expression.
func (w *Workload) ReferenceAgg(agg *squall.AggSpec) map[string]AggCell {
	out := map[string]AggCell{}
	w.eachJoined(func(assigned []types.Tuple) {
		g := make(types.Tuple, len(agg.GroupBy))
		for i, c := range agg.GroupBy {
			g[i] = expr.MustEval(c.E, assigned[c.Rel])
		}
		cell := out[g.Key()]
		cell.Cnt++
		if agg.Sum != nil {
			f, _ := expr.MustEval(agg.Sum.E, assigned[agg.Sum.Rel]).AsFloat()
			cell.Sum += f
		}
		out[g.Key()] = cell
	})
	return out
}

// RunAgg runs a planned query (see Plan) with agg on top of the join and
// returns its groups, keyed like ReferenceAgg: (group..., COUNT) rows fill
// Cnt, (group..., SUM) rows fill Sum.
func RunAgg(q *squall.JoinQuery, opts squall.Options, agg *squall.AggSpec) (map[string]AggCell, *squall.Result, error) {
	q.Agg = agg
	res, err := q.Run(opts)
	if err != nil {
		return nil, nil, err
	}
	out := map[string]AggCell{}
	ng := len(agg.GroupBy)
	for _, r := range res.Rows {
		if len(r) != ng+1 {
			return nil, nil, fmt.Errorf("result row %v: want %d group columns and the aggregate", r, ng)
		}
		k := r[:ng].Key()
		if _, dup := out[k]; dup {
			return nil, nil, fmt.Errorf("group %v emitted twice", r[:ng])
		}
		var cell AggCell
		if agg.Kind == squall.Count {
			cell.Cnt = r[ng].I
		} else {
			cell.Sum, _ = r[ng].AsFloat()
		}
		out[k] = cell
	}
	return out, res, nil
}

// eachJoined enumerates the join with a nested loop, calling fn with one
// tuple per relation for every joined combination.
func (w *Workload) eachJoined(fn func(assigned []types.Tuple)) {
	n := w.Graph.NumRels
	assigned := make([]types.Tuple, n)
	full := (uint64(1) << n) - 1
	var rec func(rel int)
	rec = func(rel int) {
		if rel == n {
			fn(assigned)
			return
		}
		mask := (uint64(1) << (rel + 1)) - 1
		for _, t := range w.Rels[rel] {
			assigned[rel] = t
			ok, err := w.Graph.HoldsAll(mask&full, assigned)
			if err != nil {
				panic(err) // generated columns are always comparable
			}
			if ok {
				rec(rel + 1)
			}
		}
		assigned[rel] = nil
	}
	rec(0)
}

// EngineConfig is one point of the differential matrix.
type EngineConfig struct {
	Scheme    squall.SchemeKind
	Local     squall.LocalJoinKind
	BatchSize int
	Adaptive  bool
	// Kill enables the chaos dimension (PR 4): one joiner task is killed at
	// a seeded point mid-run and recovered live (peer refetch when the
	// scheme replicates the relation, checkpoint + replay otherwise); the
	// result must still be bag-equal to the oracle.
	Kill bool
	// Spill enables the tiered-state dimension (PR 10): joiner arenas seal
	// cold rows into small checksummed segments and spill every sealed
	// segment to a segment store, so probes continually fault state back in
	// through the CRC-verified read path. The result must be bag-equal to
	// the untiered runs. Combined with Kill, checkpoints go incremental
	// (segment references) and recovery restores through them.
	Spill    bool
	Machines int
	Seed     int64
}

// String names the configuration for subtests and failure messages.
func (c EngineConfig) String() string { return c.name("vec") }

// name is String with exec naming the execution path: "vec" for the
// engine's packed, vectorized default, "boxed" for the boxed pipeline that
// NoSerialize runs take.
func (c EngineConfig) name(exec string) string {
	mode := "static"
	if c.Adaptive {
		mode = "adaptive"
	}
	chaos := ""
	if c.Kill {
		chaos = "/kill"
	}
	if c.Spill {
		chaos += "/spill"
	}
	return fmt.Sprintf("%v/%v/batch=%d/%s/%s%s", c.Scheme, c.Local, c.BatchSize, mode, exec, chaos)
}

// query assembles the JoinQuery for one configuration.
func (w *Workload) query(c EngineConfig) *squall.JoinQuery {
	q := &squall.JoinQuery{
		Graph:    w.Graph,
		Scheme:   c.Scheme,
		Machines: c.Machines,
		Local:    c.Local,
	}
	for rel, rows := range w.Rels {
		q.Sources = append(q.Sources, squall.Source{
			Name:  w.Names[rel],
			Spout: dataflow.SliceSpout(rows),
			Size:  int64(len(rows)),
		})
	}
	if c.Adaptive {
		q.Adaptive(true)
		// Aggressive knobs so small differential workloads still exercise
		// the reshape path.
		q.Adapt = &squall.AdaptConfig{ReportEvery: 16, MinObserved: 64, MinGain: 0.05}
	}
	return q
}

// Plan assembles the query and options for one configuration — the shared
// entry point for in-process runs, cluster coordinators and cluster workers
// (all three must build the identical execution; see squall.RegisterClusterJob).
func (w *Workload) Plan(c EngineConfig) (*squall.JoinQuery, squall.Options) {
	opts := squall.Options{
		Seed:      c.Seed,
		BatchSize: c.BatchSize,
		// Shallow inboxes keep sources backpressured behind the joiner, so
		// adaptive runs observe ratios mid-stream (and every run exercises
		// flow control).
		ChannelBuf: 8,
	}
	if c.Kill {
		// Task 0 always exists (and is always a matrix cell in adaptive
		// runs); the trigger point and checkpoint cadence are seeded small
		// so the kill lands while the task holds state.
		opts.FaultPlan = &squall.FaultPlan{Task: 0, AfterTuples: 3 + int(c.Seed%11)}
		opts.Recovery = &squall.RecoveryOptions{CheckpointEvery: 24}
	}
	if c.Spill {
		// Minimum segment size, no memory cap: without a pressure ladder
		// the tier spills eagerly at every seal, so differential workloads
		// constantly fault spilled segments back in through the verified
		// read path.
		opts.Tier = &squall.TierOptions{SegmentRows: 64}
	}
	return w.query(c), opts
}

// RunEngine executes one configuration and returns the result bag.
func (w *Workload) RunEngine(c EngineConfig) (map[string]int, *squall.Result, error) {
	q, opts := w.Plan(c)
	res, err := q.Run(opts)
	if err != nil {
		return nil, nil, err
	}
	bag := make(map[string]int, len(res.Rows))
	for _, r := range res.Rows {
		bag[r.Key()]++
	}
	return bag, res, nil
}

// DiffBags renders the difference between two bags (want vs got), empty when
// equal. At most a handful of rows are listed.
func DiffBags(want, got map[string]int) string {
	var diffs []string
	for k, n := range want {
		if got[k] != n {
			diffs = append(diffs, fmt.Sprintf("row %q: want %d, got %d", k, n, got[k]))
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("row %q: want 0, got %d", k, n))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	if len(diffs) > 8 {
		diffs = append(diffs[:8], fmt.Sprintf("... and %d more", len(diffs)-8))
	}
	return strings.Join(diffs, "\n")
}

// DrainBefore orders two single-task sources: the spout built from then
// blocks on its first Next until the spout built from first is exhausted.
// The wait gives up after drainWait so an aborted run (whose first source
// never reaches its end) cannot hang its caller.
func DrainBefore(first, then dataflow.SpoutFactory) (dataflow.SpoutFactory, dataflow.SpoutFactory) {
	drained := make(chan struct{})
	var once sync.Once
	return func(task, ntasks int) dataflow.Spout {
			return &signalSpout{Spout: first(task, ntasks), done: func() { once.Do(func() { close(drained) }) }}
		}, func(task, ntasks int) dataflow.Spout {
			return &waitSpout{Spout: then(task, ntasks), gate: drained}
		}
}

const drainWait = 30 * time.Second

type signalSpout struct {
	dataflow.Spout
	done func()
}

func (s *signalSpout) Next() (types.Tuple, bool) {
	t, ok := s.Spout.Next()
	if !ok {
		s.done()
	}
	return t, ok
}

type waitSpout struct {
	dataflow.Spout
	gate   <-chan struct{}
	opened bool
}

func (s *waitSpout) Next() (types.Tuple, bool) {
	if !s.opened {
		select {
		case <-s.gate:
		case <-time.After(drainWait):
		}
		s.opened = true
	}
	return s.Spout.Next()
}
