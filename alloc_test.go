package dynhl

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/gen"
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

// TestForkedRepairAllocs pins that a fork costs next to nothing and that
// repair scratch outlives forks. Every Store epoch repairs a freshly forked
// index: the fork itself must allocate at most 1 B/vertex (it copies chunk
// directories, not per-vertex headers), and the first write on it must draw
// every worker's O(|V|) search state from the package pools rather than
// allocate it, paying beyond that only for the chunks it copies. The
// garbage collector is off so pooled scratch survives, and one P keeps the
// test on one per-P pool slot. The first round warms the pools; the second
// is measured.
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
	// Each case deletes two arcs on landmark 0's shortest-path DAG, so both
	// deletes run a repair search. near leaves the landmark: it changes many
	// labels and so copies many label chunks. far enters the vertex
	// farthest from the landmark and changes few. dirs is the variant's
	// number of label directions.
	lu, ld, lw := u.Landmarks()[0], d.Landmarks()[0], w.Landmarks()[0]
	cases := []struct {
		name      string
		o         variant
		dirs      int
		has       func(u, v uint32) bool
		near, far [2]uint32
	}{
		{"undirected", u, 1, g.HasEdge, [2]uint32{lu, g.Neighbors(lu)[0]},
			farthestArc(t, n, func(v uint32) Dist { return u.core.PassDist(0, 0, v) },
				func(v uint32, fn func(p uint32, w Dist)) {
					for _, p := range g.Neighbors(v) {
						fn(p, 1)
					}
				})},
		{"directed", d, 2, dg.HasEdge, [2]uint32{ld, dg.Out(ld)[0]},
			farthestArc(t, n, func(v uint32) Dist { return d.core.PassDist(0, 0, v) },
				func(v uint32, fn func(p uint32, w Dist)) {
					for _, p := range dg.In(v) {
						fn(p, 1)
					}
				})},
		{"weighted", w, 1, wg.HasEdge, [2]uint32{lw, wg.Neighbors(lw)[0].To},
			farthestArc(t, n, func(v uint32) Dist { return w.core.PassDist(0, 0, v) },
				func(v uint32, fn func(p uint32, w Dist)) {
					for _, a := range wg.Neighbors(v) {
						fn(a.To, a.W)
					}
				})},
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
				var a, b uint32
				for a == b || c.has(a, b) {
					a, b = uint32(rng.Intn(n)), uint32(rng.Intn(n))
				}
				// Every write is the first on its own fresh fork, so it pays
				// the chunk copies a fork defers to the first write: a span
				// table of 512 × 8 B per chunk, 4 KiB, plus the chunk's
				// overflow. The insert and the far delete touch few chunks and
				// must stay under 8 B/vertex. The near delete changes labels
				// in nearly every chunk of a direction, so it is gated
				// together with its fork: 8 B/vertex plus at most one copy of
				// each label direction's span tables and overflows, 28
				// B/vertex — the copy the eager fork used to make up front,
				// and no more.
				writes := []struct {
					name    string
					op      func(f variant) error
					chunked bool
				}{
					{"InsertEdge", func(f variant) error { _, err := f.InsertEdge(a, b, 1); return err }, false},
					{"DeleteEdge near landmark", func(f variant) error { _, err := f.DeleteEdge(c.near[0], c.near[1]); return err }, true},
					{"DeleteEdge far from landmark", func(f variant) error { _, err := f.DeleteEdge(c.far[0], c.far[1]); return err }, false},
				}
				for _, wr := range writes {
					var f variant
					fork := allocated(func() error { f = c.o.fork(); return nil })
					op := allocated(func() error { return wr.op(f) })
					if round == 0 {
						continue
					}
					t.Logf("fork %d B, %s %d B on %d vertices", fork, wr.name, op, n)
					if fork > n {
						t.Errorf("fork allocated %d bytes (%.2f B/vertex), want at most 1 B/vertex", fork, float64(fork)/n)
					}
					if wr.chunked {
						if limit := uint64(8+28*c.dirs) * n; fork+op > limit {
							t.Errorf("fork + %s allocated %d bytes (%.1f B/vertex), want at most %d B/vertex",
								wr.name, fork+op, float64(fork+op)/n, limit/n)
						}
					} else if op >= 8*n {
						t.Errorf("%s on a fresh fork allocated %d bytes (%.1f B/vertex)", wr.name, op, float64(op)/n)
					}
				}
			}
		})
	}
}

// farthestArc returns the arc (p, v) into the vertex v at the largest
// finite distance from a landmark, from a shortest-path parent p of v.
// parents calls fn with every in-neighbour of v and the arc's weight.
func farthestArc(t *testing.T, n int, dist func(uint32) Dist, parents func(v uint32, fn func(p uint32, w Dist))) [2]uint32 {
	t.Helper()
	far, best := uint32(0), Dist(0)
	for v := uint32(0); v < uint32(n); v++ {
		if dv := dist(v); dv != Inf && dv > best {
			far, best = v, dv
		}
	}
	arc := [2]uint32{far, far}
	parents(far, func(p uint32, w Dist) {
		if arc[0] == far && dist(p)+w == best {
			arc[0] = p
		}
	})
	if arc[0] == far {
		t.Fatalf("vertex %d at distance %d has no shortest-path parent", far, best)
	}
	return arc
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

// TestLabelHeapOnce pins that a labelling is held once: building the
// social-read shape at a tenth of its size and wrapping it in a Store adds
// at most a quarter more heap than the label tables Stats reports, so no
// second copy of the labels (per-vertex rows beside the packed chunks)
// survives the build or the first publish.
func TestLabelHeapOnce(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	g := gen.BarabasiAlbert(50_000, 8, 11)
	before := heap()
	idx, err := Build(g, Options{Landmarks: 20})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(idx)
	added := int64(heap()) - int64(before)
	packed := st.Snapshot().Stats().PackedBytes
	t.Logf("labelling added %d B of heap for %d B of label tables", added, packed)
	if added > packed*5/4 {
		t.Errorf("labelling added %d B of heap, more than 1.25 × its %d B of label tables", added, packed)
	}
	runtime.KeepAlive(st)
}
