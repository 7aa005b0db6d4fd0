package ops

import (
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"squall/internal/dataflow"
	"squall/internal/dbtoaster"
	"squall/internal/expr"
	"squall/internal/types"
)

func TestSelectAndProject(t *testing.T) {
	sel := Select{P: expr.Cmp{Op: expr.Gt, L: expr.C(0), R: expr.I(3)}}
	if out, err := sel.Apply(types.Tuple{types.Int(5)}); err != nil || len(out) != 1 {
		t.Errorf("Select(5>3) = %v, %v", out, err)
	}
	if out, err := sel.Apply(types.Tuple{types.Int(1)}); err != nil || len(out) != 0 {
		t.Errorf("Select(1>3) = %v, %v", out, err)
	}
	proj := Project{Es: []expr.Expr{expr.C(1), expr.Arith{Op: expr.Mul, L: expr.C(0), R: expr.I(2)}}}
	out, err := proj.Apply(types.Tuple{types.Int(3), types.Str("x")})
	if err != nil {
		t.Fatal(err)
	}
	want := types.Tuple{types.Str("x"), types.Int(6)}
	if !out[0].Equal(want) {
		t.Errorf("Project = %v, want %v", out[0], want)
	}
}

func TestPipelineShortCircuits(t *testing.T) {
	p := Pipeline{
		Select{P: expr.Cmp{Op: expr.Gt, L: expr.C(0), R: expr.I(0)}},
		Project{Es: []expr.Expr{expr.C(0)}},
	}
	if out, err := p.Apply(types.Tuple{types.Int(-1)}); err != nil || out != nil {
		t.Errorf("filtered tuple = %v, %v", out, err)
	}
	if out, err := p.Apply(types.Tuple{types.Int(2)}); err != nil || len(out) != 1 {
		t.Errorf("passing tuple = %v, %v", out, err)
	}
}

func TestAggCountSumAvg(t *testing.T) {
	rows := []types.Tuple{
		{types.Str("a"), types.Int(1)},
		{types.Str("a"), types.Int(3)},
		{types.Str("b"), types.Int(10)},
	}
	for _, tc := range []struct {
		kind AggKind
		want map[string]float64
	}{
		{Count, map[string]float64{"a": 2, "b": 1}},
		{Sum, map[string]float64{"a": 4, "b": 10}},
		{Avg, map[string]float64{"a": 2, "b": 10}},
	} {
		a := NewAgg([]expr.Expr{expr.C(0)}, tc.kind, expr.C(1), false)
		for _, r := range rows {
			if _, err := a.Fold(r); err != nil {
				t.Fatal(err)
			}
		}
		got := map[string]float64{}
		for _, row := range a.Rows() {
			f, _ := row[1].AsFloat()
			got[row[0].Str] = f
		}
		for k, want := range tc.want {
			if math.Abs(got[k]-want) > 1e-9 {
				t.Errorf("%s group %s = %g, want %g", tc.kind, k, got[k], want)
			}
		}
	}
}

func TestAggIncrementalEmitsUpdates(t *testing.T) {
	a := NewAgg([]expr.Expr{expr.C(0)}, Count, nil, true)
	r1, err := a.Fold(types.Tuple{types.Str("k")})
	if err != nil || r1 == nil || r1[1].I != 1 {
		t.Fatalf("first update = %v, %v", r1, err)
	}
	r2, _ := a.Fold(types.Tuple{types.Str("k")})
	if r2[1].I != 2 {
		t.Errorf("second update = %v", r2)
	}
}

func TestAggSumRequiresExpr(t *testing.T) {
	a := NewAgg(nil, Sum, nil, false)
	if _, err := a.Fold(types.Tuple{types.Int(1)}); err == nil {
		t.Error("SUM without expression must error")
	}
}

// runJoinTopology wires 3 spouts through a join bolt under the given local
// join kind and returns the sorted result rows.
func runJoinTopology(t *testing.T, kind LocalJoinKind) []types.Tuple {
	t.Helper()
	g := expr.MustJoinGraph(3,
		expr.EquiCol(0, 1, 1, 0),
		expr.EquiCol(1, 1, 2, 0),
	)
	mk := func(n int, f func(i int) types.Tuple) []types.Tuple {
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = f(i)
		}
		return rows
	}
	r := mk(20, func(i int) types.Tuple { return types.Tuple{types.Int(int64(i)), types.Int(int64(i % 4))} })
	s := mk(20, func(i int) types.Tuple { return types.Tuple{types.Int(int64(i % 4)), types.Int(int64(i % 3))} })
	u := mk(20, func(i int) types.Tuple { return types.Tuple{types.Int(int64(i % 3)), types.Int(int64(i))} })
	sink := dataflow.NewGather()
	topo, err := dataflow.NewBuilder().
		Spout("R", 1, dataflow.SliceSpout(r)).
		Spout("S", 1, dataflow.SliceSpout(s)).
		Spout("T", 1, dataflow.SliceSpout(u)).
		Bolt("join", 1, JoinBolt(g, kind, map[string]int{"R": 0, "S": 1, "T": 2}, nil, false, nil)).
		Bolt("sink", 1, sink.Factory()).
		Input("join", "R", dataflow.Global()).
		Input("join", "S", dataflow.Global()).
		Input("join", "T", dataflow.Global()).
		Input("sink", "join", dataflow.Global()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dataflow.Run(topo, dataflow.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return sink.SortedRows()
}

func TestJoinBoltTraditionalAndDBToasterAgree(t *testing.T) {
	trad := runJoinTopology(t, Traditional)
	dbt := runJoinTopology(t, DBToaster)
	if len(trad) == 0 {
		t.Fatal("join produced nothing")
	}
	if len(trad) != len(dbt) {
		t.Fatalf("traditional %d rows, dbtoaster %d", len(trad), len(dbt))
	}
	for i := range trad {
		if !trad[i].Equal(dbt[i]) {
			t.Fatalf("row %d: %v vs %v", i, trad[i], dbt[i])
		}
	}
}

// pathCounter wraps a row-capable bolt and counts which entry point the
// executor drove: ExecuteRow (packed frames) or Execute (boxed tuples).
type pathCounter struct {
	dataflow.Bolt
	rows, tuples *atomic.Int64
}

func (p pathCounter) Execute(in dataflow.Input, out *dataflow.Collector) error {
	p.tuples.Add(1)
	return p.Bolt.Execute(in, out)
}

func (p pathCounter) ExecuteRow(in dataflow.RowInput, out *dataflow.Collector) error {
	p.rows.Add(1)
	return p.Bolt.(dataflow.RowBolt).ExecuteRow(in, out)
}

// TestAggJoinBoltWithMerge runs COUNT(*) GROUP BY R.y over R ⋈ S on y with
// parallel joiners and one merger, once from packed sources (frames reach
// the joiner's ExecuteRow) and once from boxed ones (tuples reach Execute):
// both paths must produce the same rows. The incremental variant compares
// the per-group totals of the partials the joiners emit on every update.
func TestAggJoinBoltWithMerge(t *testing.T) {
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	spec := dbtoaster.AggSpec{
		GroupBy: []dbtoaster.ColRef{{Rel: 0, E: expr.C(0)}},
		Kind:    dbtoaster.AggCount,
	}
	var r, s []types.Tuple
	for i := 0; i < 40; i++ {
		r = append(r, types.Tuple{types.Int(int64(i % 5))})
		s = append(s, types.Tuple{types.Int(int64(i % 5))})
	}
	run := func(t *testing.T, packed, incremental bool) []types.Tuple {
		var rows, tuples atomic.Int64
		join := AggJoinBolt(g, spec, map[string]int{"R": 0, "S": 1}, incremental)
		counted := func(task, ntasks int) dataflow.Bolt {
			return pathCounter{Bolt: join(task, ntasks), rows: &rows, tuples: &tuples}
		}
		rs, ss := dataflow.SliceSpout(r), dataflow.SliceSpout(s)
		if packed {
			rs, ss = PackedSpout(rs, nil), PackedSpout(ss, nil)
		}
		sink := dataflow.NewGather()
		b := dataflow.NewBuilder().
			Spout("R", 2, rs).
			Spout("S", 2, ss).
			Bolt("join", 4, counted).
			Bolt("sink", 1, sink.Factory()).
			Input("join", "R", dataflow.Fields(0)).
			Input("join", "S", dataflow.Fields(0))
		if incremental {
			b.Input("sink", "join", dataflow.Global())
		} else {
			b.Bolt("merge", 1, MergeBolt(1, Count, false, false)).
				Input("merge", "join", dataflow.Global()).
				Input("sink", "merge", dataflow.Global())
		}
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dataflow.Run(topo, dataflow.Options{Seed: 4}); err != nil {
			t.Fatal(err)
		}
		if packed && (rows.Load() != 80 || tuples.Load() != 0) {
			t.Fatalf("packed: %d row / %d tuple deliveries, want 80 / 0", rows.Load(), tuples.Load())
		}
		if !packed && (tuples.Load() != 80 || rows.Load() != 0) {
			t.Fatalf("boxed: %d tuple / %d row deliveries, want 80 / 0", tuples.Load(), rows.Load())
		}
		if !incremental {
			return sink.SortedRows()
		}
		// Per-update partials depend on arrival order; their per-group
		// totals do not.
		cnt := map[int64]int64{}
		for _, row := range sink.Rows() {
			if len(row) != 3 || row[1].Kind() != types.KindInt || row[2].Kind() != types.KindFloat {
				t.Fatalf("partial %v is not (group, cnt INT, sum FLOAT)", row)
			}
			cnt[row[0].I] += row[1].I
		}
		var totals []types.Tuple
		for g, n := range cnt {
			totals = append(totals, types.Tuple{types.Int(g), types.Int(n)})
		}
		sortRows(totals)
		return totals
	}
	for _, incremental := range []bool{false, true} {
		packed, boxed := run(t, true, incremental), run(t, false, incremental)
		if len(packed) != len(boxed) {
			t.Fatalf("incremental=%v: packed path %d rows, boxed path %d", incremental, len(packed), len(boxed))
		}
		for i := range packed {
			if !packed[i].Equal(boxed[i]) {
				t.Fatalf("incremental=%v: row %d: packed %v, boxed %v", incremental, i, packed[i], boxed[i])
			}
		}
		if len(packed) != 5 {
			t.Fatalf("groups = %v", packed)
		}
		for _, row := range packed {
			// Each key appears 8x in R and 8x in S: count 64.
			if row[1].I != 64 {
				t.Errorf("group %v count = %v, want 64", row[0], row[1])
			}
		}
	}
}

func TestMergeBoltRejectsBadArity(t *testing.T) {
	b := MergeBolt(1, Count, false, false)(0, 1)
	err := b.Execute(dataflow.Input{Tuple: types.Tuple{types.Int(1)}}, nil)
	if err == nil {
		t.Error("short merge row must error")
	}
}

func TestJoinBoltUnknownStream(t *testing.T) {
	g := expr.MustJoinGraph(2, expr.EquiCol(0, 0, 1, 0))
	b := JoinBolt(g, Traditional, map[string]int{"R": 0}, nil, false, nil)(0, 1)
	err := b.Execute(dataflow.Input{Stream: "???", Tuple: types.Tuple{types.Int(1)}}, nil)
	if err == nil {
		t.Error("unknown stream must error")
	}
}

func sortRows(rows []types.Tuple) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
}

// TestAggMatchesReference drives random updates through the group table
// and requires the result rows of a linear-scan reference — including the
// group-identity corner where Int(2) and Float(2.0) are distinct groups
// (their canonical encodings differ), which the table's byte-equality
// verification must preserve.
func TestAggMatchesReference(t *testing.T) {
	a := NewAgg([]expr.Expr{expr.C(0), expr.C(1)}, Sum, expr.C(2), false)
	rows := []types.Tuple{
		{types.Int(2), types.Str("x"), types.Int(1)},
		{types.Float(2.0), types.Str("x"), types.Int(10)}, // distinct group from Int(2)
		{types.Int(2), types.Str("x"), types.Int(100)},
		{types.Null(), types.Str(""), types.Int(7)},
		{types.Int(-5), types.Str("long payload string"), types.Int(3)},
	}
	for i := 0; i < 200; i++ {
		rows = append(rows, types.Tuple{
			types.Int(int64(i % 17)), types.Str("g"), types.Int(int64(i)),
		})
	}
	// The reference groups by kind and value: a linear scan, no hashing.
	type group struct {
		key types.Tuple
		sum float64
	}
	var ref []*group
	sameKey := func(a, b types.Tuple) bool {
		for i := range a {
			if a[i].Kind() != b[i].Kind() || !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	for _, r := range rows {
		if _, err := a.Fold(r); err != nil {
			t.Fatal(err)
		}
		var g *group
		for _, cand := range ref {
			if sameKey(cand.key, r[:2]) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: r[:2]}
			ref = append(ref, g)
		}
		g.sum += float64(r[2].I)
	}
	if a.Groups() != len(ref) {
		t.Fatalf("%d groups, reference %d", a.Groups(), len(ref))
	}
	got := a.Rows()
	for _, g := range ref {
		found := false
		for _, row := range got {
			if sameKey(row[:2], g.key) {
				found = true
				if row[2].F != g.sum {
					t.Errorf("group %v: sum %v, reference %v", g.key, row[2], g.sum)
				}
			}
		}
		if !found {
			t.Errorf("group %v missing from %v", g.key, got)
		}
	}
}

// TestAggUpdateAllocFree pins the satellite fix: steady-state updates (all
// groups already present) must not allocate.
func TestAggUpdateAllocFree(t *testing.T) {
	a := NewAgg([]expr.Expr{expr.C(0)}, Count, nil, false)
	rows := make([]types.Tuple, 64)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 8))}
	}
	for _, r := range rows { // materialize all groups first
		if _, err := a.Update(r, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range rows {
			if _, err := a.Update(r, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Update allocates %.1f objects per 64 updates, want 0", allocs)
	}
}
