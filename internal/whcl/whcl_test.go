package whcl

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/wgraph"
)

// randomWeighted returns a weighted graph with ~m random edges of weight
// 1..maxW.
func randomWeighted(n, m int, maxW graph.Dist, seed int64) *wgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := wgraph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	for i := 0; i < m; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u != v {
			_, _ = g.AddEdge(u, v, 1+graph.Dist(rng.Intn(int(maxW))))
		}
	}
	return g
}

func topLandmarks(g *wgraph.Graph, k int) []uint32 {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := len(g.Neighbors(ids[i])), len(g.Neighbors(ids[j]))
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return append([]uint32(nil), ids[:k]...)
}

func nonEdges(g *wgraph.Graph, count int, seed int64) [][2]uint32 {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	seen := map[[2]uint32]bool{}
	var out [][2]uint32
	for tries := 0; len(out) < count && tries < 500*count; tries++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		key := [2]uint32{min(u, v), max(u, v)}
		if u == v || g.HasEdge(u, v) || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, key)
	}
	return out
}

func TestWgraphBasics(t *testing.T) {
	g := wgraph.New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	if ok, err := g.AddEdge(0, 1, 5); !ok || err != nil {
		t.Fatalf("AddEdge: %v %v", ok, err)
	}
	if g.Weight(0, 1) != 5 || g.Weight(1, 0) != 5 {
		t.Error("weights must be symmetric")
	}
	if _, err := g.AddEdge(0, 2, 0); err == nil {
		t.Error("zero weight must be rejected")
	}
	if _, err := g.AddEdge(0, 2, graph.Inf); err == nil {
		t.Error("Inf weight must be rejected")
	}
	if _, err := g.AddEdge(1, 1, 2); err == nil {
		t.Error("self-loop must be rejected")
	}
	if ok, _ := g.AddEdge(0, 1, 9); ok {
		t.Error("duplicate must report false")
	}
	c := g.Clone()
	c.MustAddEdge(1, 2, 3)
	if g.HasEdge(1, 2) {
		t.Error("clone leaked")
	}
}

func TestDijkstraWeightedPath(t *testing.T) {
	// 0 -5- 1 -1- 2 and direct 0 -7- 2: shortest 0→2 is 6 via vertex 1.
	g := wgraph.New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 7)
	if got := g.Dist(0, 2); got != 6 {
		t.Errorf("Dist(0,2): got %d, want 6", got)
	}
	dist := make([]graph.Dist, 3)
	order := g.Dijkstra(0, dist)
	if len(order) != 3 || order[0] != 0 {
		t.Errorf("settle order: %v", order)
	}
	for i := 1; i < len(order); i++ {
		if dist[order[i-1]] > dist[order[i]] {
			t.Error("settle order must be non-decreasing")
		}
	}
}

// TestSparsifiedWeightedMatchesOracle checks the bounded bidirectional
// Dijkstra against Dijkstra on the pruned graph. A third of the graphs draw
// weights 1–6; the rest draw weights up to 1<<30, and the sparse ones among
// them have paths long enough to saturate graph.AddDist, which both sides
// must report as graph.Inf.
func TestSparsifiedWeightedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	saturated := 0
	for iter := 0; iter < 300; iter++ {
		var g *wgraph.Graph
		switch iter % 3 {
		case 0:
			g = randomWeighted(25, 45, 6, rng.Int63())
		case 1:
			g = randomWeighted(25, 45, 1<<30, rng.Int63())
		default:
			g = randomWeighted(25, 30, 1<<30, rng.Int63())
		}
		av := uint32(rng.Intn(25))
		u := uint32(rng.Intn(25))
		v := uint32(rng.Intn(25))
		avoid := func(x uint32) bool { return x == av }
		pruned := wgraph.New(25)
		for i := 0; i < 25; i++ {
			pruned.AddVertex()
		}
		for x := uint32(0); x < 25; x++ {
			for _, a := range g.Neighbors(x) {
				if x >= a.To {
					continue
				}
				xBad := avoid(x) && x != u && x != v
				yBad := avoid(a.To) && a.To != u && a.To != v
				if !xBad && !yBad {
					pruned.MustAddEdge(x, a.To, a.W)
				}
			}
		}
		want := pruned.Dist(u, v)
		if want == graph.Inf && connected(pruned, u, v) {
			saturated++
		}
		qs := &bfs.QuerySpace{DistU: make([]graph.Dist, 25), DistV: make([]graph.Dist, 25)}
		for i := range qs.DistU {
			qs.DistU[i] = graph.Inf
			qs.DistV[i] = graph.Inf
		}
		if got := g.Sparsified(u, v, graph.Inf, avoid, qs); got != want {
			t.Fatalf("iter %d: Sparsified(%d,%d) avoiding %d: got %d, want %d", iter, u, v, av, got, want)
		}
	}
	if saturated == 0 {
		t.Error("no connected pair saturated graph.AddDist")
	}
}

// connected reports whether some path joins u and v, whatever its weight.
func connected(g *wgraph.Graph, u, v uint32) bool {
	seen := map[uint32]bool{u: true}
	for front := []uint32{u}; len(front) > 0; front = front[1:] {
		for _, a := range g.Neighbors(front[0]) {
			if !seen[a.To] {
				seen[a.To] = true
				front = append(front, a.To)
			}
		}
	}
	return seen[v]
}

// TestBuildQueryMatchesDijkstraOracle checks every pair's Query against
// Dijkstra on random weighted graphs, some of them disconnected. For every
// pair (u, v) it also checks the query's landmark lower bound (hcl.ALT):
// at every vertex x, Lower(x, t) is at most d(x, t) for t = u and t = v,
// and at a non-landmark x = u it is the largest |d(r,u) − d(r,v)| over all
// landmarks r reaching both, which the kept landmarks must include. (A
// landmark's label is empty, so its bound is 0.)
func TestBuildQueryMatchesDijkstraOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomWeighted(40, 90, 8, seed)
		idx, err := Build(g, topLandmarks(g, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dist := make([][]graph.Dist, 40)
		for u := range dist {
			dist[u] = make([]graph.Dist, 40)
			g.Dijkstra(uint32(u), dist[u])
		}
		for u := uint32(0); u < 40; u++ {
			for v := uint32(0); v < 40; v++ {
				if got := idx.Query(u, v); got != dist[u][v] {
					t.Fatalf("seed %d: Query(%d,%d): got %d, want %d", seed, u, v, got, dist[u][v])
				}
				alt := idx.ALT(u, v)
				for x := uint32(0); x < 40; x++ {
					for _, end := range []uint32{u, v} {
						if lb := alt.Lower(x, end); lb > dist[x][end] {
							t.Fatalf("seed %d: pair (%d,%d): Lower(%d,%d) = %d above the distance %d", seed, u, v, x, end, lb, dist[x][end])
						}
					}
				}
				var gap graph.Dist
				for _, r := range idx.Landmarks {
					if du, dv := dist[r][u], dist[r][v]; du != graph.Inf && dv != graph.Inf {
						gap = max(gap, max(du, dv)-min(du, dv))
					}
				}
				if u != v && !idx.IsLandmark(u) {
					if lb := alt.Lower(u, v); lb != gap {
						t.Fatalf("seed %d: pair (%d,%d): Lower(u,v) = %d, want the largest landmark gap %d", seed, u, v, lb, gap)
					}
				}
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := randomWeighted(5, 8, 3, 1)
	if _, err := Build(g, nil); err == nil {
		t.Error("no landmarks must fail")
	}
	if _, err := Build(g, []uint32{2, 2}); err == nil {
		t.Error("duplicate landmarks must fail")
	}
	if _, err := Build(g, []uint32{50}); err == nil {
		t.Error("unknown landmark must fail")
	}
}

func TestInsertEdgeMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomWeighted(35, 70, 6, 40+seed)
		lm := topLandmarks(g, 3+int(seed%3))
		idx, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 3))
		for i, e := range nonEdges(g, 20, seed+9) {
			w := 1 + graph.Dist(rng.Intn(6))
			if _, err := idx.InsertEdge(e[0], e[1], w); err != nil {
				t.Fatalf("seed %d insert %d: %v", seed, i, err)
			}
			fresh, err := Build(g, lm)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.EqualLabels(fresh); err != nil {
				t.Fatalf("seed %d after insert %d (%d,%d,w=%d): %v", seed, i, e[0], e[1], w, err)
			}
		}
		if err := idx.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestInsertEdgeQueriesStayExact(t *testing.T) {
	g := randomWeighted(30, 55, 5, 17)
	idx, err := Build(g, topLandmarks(g, 4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, e := range nonEdges(g, 25, 6) {
		if _, err := idx.InsertEdge(e[0], e[1], 1+graph.Dist(rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
	}
	dist := make([]graph.Dist, 30)
	for u := uint32(0); u < 30; u++ {
		g.Dijkstra(u, dist)
		for v := uint32(0); v < 30; v++ {
			if got := idx.Query(u, v); got != dist[v] {
				t.Fatalf("Query(%d,%d): got %d, want %d", u, v, got, dist[v])
			}
		}
	}
}

func TestInsertHeavyEdgeIsNoOp(t *testing.T) {
	// A very heavy edge shortens nothing: the labelling must be unchanged
	// except for the graph itself, and most landmarks skipped.
	g := randomWeighted(25, 60, 2, 3)
	lm := topLandmarks(g, 4)
	idx, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	before := idx.NumEntries()
	e := nonEdges(g, 1, 8)[0]
	st, err := idx.InsertEdge(e[0], e[1], 4000)
	if err != nil {
		t.Fatal(err)
	}
	if st.LandmarksSkipped != 4 {
		t.Errorf("heavy edge should skip all landmarks: %+v", st)
	}
	if idx.NumEntries() != before {
		t.Error("heavy edge must not change the labelling size")
	}
	fresh, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.EqualLabels(fresh); err != nil {
		t.Fatal(err)
	}
}
func TestInsertEdgeErrors(t *testing.T) {
	g := randomWeighted(8, 10, 3, 2)
	idx, err := Build(g, topLandmarks(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.InsertEdge(0, 0, 1); err == nil {
		t.Error("self-loop must be rejected")
	}
	if _, err := idx.InsertEdge(0, 99, 1); err == nil {
		t.Error("unknown vertex must be rejected")
	}
	e := nonEdges(g, 1, 4)[0]
	if _, err := idx.InsertEdge(e[0], e[1], 0); err == nil {
		t.Error("zero weight must be rejected")
	}
	if _, err := idx.InsertEdge(e[0], e[1], 2); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.InsertEdge(e[0], e[1], 2); err == nil {
		t.Error("duplicate must be rejected")
	}
}

func TestQuickInsertStreamMinimality(t *testing.T) {
	f := func(seed int64, kRaw, wRaw uint8) bool {
		g := randomWeighted(22, 45, 1+graph.Dist(wRaw%7), seed)
		lm := topLandmarks(g, 1+int(kRaw)%4)
		idx, err := Build(g, lm)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		for _, e := range nonEdges(g, 8, seed+2) {
			if _, err := idx.InsertEdge(e[0], e[1], 1+graph.Dist(rng.Intn(7))); err != nil {
				return false
			}
		}
		fresh, err := Build(g, lm)
		if err != nil {
			return false
		}
		return idx.EqualLabels(fresh) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Fatal(err)
	}
}

func TestUnitWeightsMatchUnweighted(t *testing.T) {
	// With all weights 1, the weighted index must behave like BFS.
	g := randomWeighted(30, 60, 1, 13)
	idx, err := Build(g, topLandmarks(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]graph.Dist, 30)
	for u := uint32(0); u < 30; u += 3 {
		g.Dijkstra(u, dist)
		for v := uint32(0); v < 30; v++ {
			if got := idx.Query(u, v); got != dist[v] {
				t.Fatalf("Query(%d,%d): got %d, want %d", u, v, got, dist[v])
			}
		}
	}
}
