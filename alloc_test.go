package dynhl

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/testutil"
)

// The packed read path must be allocation-free: a published View answers
// Query with zero heap allocations and QueryBatch with nothing beyond the
// result slice. These are regression gates (run in CI under GOGC=off) for
// the CSR arena layout — a stray closure, boxed heap item or per-level
// frontier slice on any variant's query path trips them.

// allocPairs returns query endpoints spread over the vertex range so the
// measured loop exercises label-pair scans and the bounded sparsified
// search, not one cached pair.
func allocPairs(n int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, 64)
	for i := range pairs {
		pairs[i] = Pair{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
	}
	return pairs
}

// measureView asserts v.Query allocates nothing and v.QueryBatch allocates
// only its result slice, for a snapshot serving n vertices.
func measureView(t *testing.T, variant string, v View, n int) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in normal builds")
	}
	pairs := allocPairs(n, 7)
	// Warm the scratch pools: the first query on a cold pool allocates its
	// QuerySpace; steady state must not.
	for _, p := range pairs {
		v.Query(p.U, p.V)
	}
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		v.Query(p.U, p.V)
	}); got != 0 {
		t.Errorf("%s: View.Query allocates %.1f times per call, want 0", variant, got)
	}
	// len(pairs) = 64 = serialBatchMax keeps the batch on the serial path:
	// goroutine fan-out is measured by the benchmarks, not this gate.
	if got := testing.AllocsPerRun(50, func() {
		v.QueryBatch(pairs)
	}); got > 1 {
		t.Errorf("%s: View.QueryBatch allocates %.1f times per batch, want only the result slice", variant, got)
	}
}

func TestPackedQueryZeroAllocs(t *testing.T) {
	const n = 400
	t.Run("undirected", func(t *testing.T) {
		idx, err := Build(testutil.RandomConnectedGraph(n, 2*n, 11), Options{Landmarks: 8})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(idx)
		if st.Snapshot().Stats().PackedBytes == 0 {
			t.Fatal("published snapshot is not packed")
		}
		measureView(t, "undirected", st.Snapshot(), n)
		// The gate measures instrumented views (Snapshot wires the store's
		// metrics in): zero allocations AND the latency histogram must both
		// hold — recording is a pair of atomic adds, not an allocation.
		if st.metrics.query.Count() == 0 {
			t.Fatal("instrumentation: query histogram recorded nothing during the gate")
		}
	})
	t.Run("directed", func(t *testing.T) {
		g := NewDigraph(n)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < n; i++ {
			g.AddVertex()
		}
		for e := 0; e < 2*n; e++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n/2)+1)
			if u != v {
				g.MustAddEdge(u, v)
			}
		}
		idx, err := BuildDirected(g, Options{Landmarks: 8})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(idx)
		if st.Snapshot().Stats().PackedBytes == 0 {
			t.Fatal("published snapshot is not packed")
		}
		measureView(t, "directed", st.Snapshot(), n)
	})
	t.Run("weighted", func(t *testing.T) {
		g := NewWeightedGraph(n)
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < n; i++ {
			g.AddVertex()
		}
		for e := 0; e < 2*n; e++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n/2)+1)
			if u != v {
				g.MustAddEdge(u, v, Dist(rng.Intn(8)+1))
			}
		}
		idx, err := BuildWeighted(g, Options{Landmarks: 8})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(idx)
		if st.Snapshot().Stats().PackedBytes == 0 {
			t.Fatal("published snapshot is not packed")
		}
		measureView(t, "weighted", st.Snapshot(), n)
	})
}

// TestFreshEpochQueryZeroAllocs pins that query scratch outlives epochs:
// the first queries on a freshly published snapshot reuse the search
// scratch earlier epochs warmed, instead of each fork allocating its own
// 8·|V| bytes of distance vectors. The garbage collector is off for the
// measurement so pooled scratch cannot be dropped mid-test, and one P
// keeps the test on a single per-P pool slot.
func TestFreshEpochQueryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in normal builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 20000
	rng := rand.New(rand.NewSource(43))
	dg := NewDigraph(n)
	wg := NewWeightedGraph(n)
	for i := 0; i < n; i++ {
		dg.AddVertex()
		wg.AddVertex()
	}
	for e := 0; e < 3*n; e++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u != v {
			dg.AddEdge(u, v)
			wg.AddEdge(u, v, Dist(1+rng.Intn(8)))
		}
	}
	build := map[string]func() (Oracle, error){
		"undirected": func() (Oracle, error) {
			return Build(testutil.RandomConnectedGraph(n, 2*n, 47), Options{Landmarks: 8})
		},
		"directed": func() (Oracle, error) { return BuildDirected(dg, Options{Landmarks: 8}) },
		"weighted": func() (Oracle, error) { return BuildWeighted(wg, Options{Landmarks: 8}) },
	}
	pairs := allocPairs(n, 53)
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			o, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			st := NewStore(o)
			for _, p := range pairs {
				st.Query(p.U, p.V)
			}
			for epoch := 0; epoch < 3; epoch++ {
				for {
					u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					if _, err := st.ApplyCtx(context.Background(), []Op{InsertEdgeOp(u, v, 1)}); err == nil {
						break
					}
				}
				view := st.Snapshot()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for _, p := range pairs[:8] {
					view.Query(p.U, p.V)
				}
				runtime.ReadMemStats(&after)
				// One fork's private scratch would be 8·|V| = 160 KB.
				if got := after.TotalAlloc - before.TotalAlloc; got > n {
					t.Fatalf("epoch %d: first queries allocated %d bytes, want the pooled scratch reused", view.Epoch(), got)
				}
			}
		})
	}
}

// TestForkedRepairAllocs pins that repair scratch outlives forks: every
// Store epoch repairs a freshly forked index, so the first insert and the
// first delete on a fork must draw every worker's O(|V|) search state from
// the package pools rather than allocate it. The garbage collector is off
// so pooled scratch survives, and one P keeps the test on one per-P pool
// slot. The first round warms the pools; the second is measured.
func TestForkedRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in normal builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 50000
	rng := rand.New(rand.NewSource(59))
	g := testutil.RandomConnectedGraph(n, 3*n, 61)
	dg := NewDigraph(n)
	wg := NewWeightedGraph(n)
	for i := 0; i < n; i++ {
		dg.AddVertex()
		wg.AddVertex()
	}
	for e := 0; e < 4*n; e++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u != v {
			dg.AddEdge(u, v)
			wg.AddEdge(u, v, Dist(1+rng.Intn(8)))
		}
	}
	u, err := Build(g, Options{Landmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDirected(dg, Options{Landmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWeighted(wg, Options{Landmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Each case deletes an arc out of landmark 0, which lies on that
	// landmark's shortest-path DAG, so the delete runs a rebuild search.
	lu, ld, lw := u.Landmarks()[0], d.Landmarks()[0], w.Landmarks()[0]
	cases := []struct {
		name string
		o    variant
		has  func(u, v uint32) bool
		del  [2]uint32
	}{
		{"undirected", u, g.HasEdge, [2]uint32{lu, g.Neighbors(lu)[0]}},
		{"directed", d, dg.HasEdge, [2]uint32{ld, dg.Out(ld)[0]}},
		{"weighted", w, wg.HasEdge, [2]uint32{lw, wg.Neighbors(lw)[0].To}},
	}
	allocated := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 2; round++ {
				f := c.o.fork()
				var a, b uint32
				for a == b || c.has(a, b) {
					a, b = uint32(rng.Intn(n)), uint32(rng.Intn(n))
				}
				ins := allocated(func() error { _, err := f.InsertEdge(a, b, 1); return err })
				del := allocated(func() error { _, err := f.DeleteEdge(c.del[0], c.del[1]); return err })
				if round == 0 {
					continue
				}
				t.Logf("InsertEdge %d B, DeleteEdge %d B on %d vertices", ins, del, n)
				if ins >= 8*n {
					t.Errorf("InsertEdge on a fresh fork allocated %d bytes (%.1f B/vertex)", ins, float64(ins)/n)
				}
				if del >= 8*n {
					t.Errorf("DeleteEdge on a fresh fork allocated %d bytes (%.1f B/vertex)", del, float64(del)/n)
				}
			}
		})
	}
}

// TestPackedSurvivesPublish pins the pack-on-publish cycle: every epoch a
// Store publishes — fresh wrap, batch applies, loads — serves from a packed
// labelling, and a mutated fork never leaks an unpacked snapshot.
func TestPackedSurvivesPublish(t *testing.T) {
	idx, err := Build(testutil.RandomConnectedGraph(200, 400, 23), Options{Landmarks: 6})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(idx)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 10; i++ {
		var ops []Op
		for len(ops) < 3 {
			u, v := uint32(rng.Intn(200)), uint32(rng.Intn(200))
			if u != v && !st.Unwrap().(*Index).Graph().HasEdge(u, v) {
				ops = append(ops, InsertEdgeOp(u, v, 0))
			}
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if st.Snapshot().Stats().PackedBytes == 0 {
			t.Fatalf("epoch %d published unpacked", st.Epoch())
		}
	}
}
