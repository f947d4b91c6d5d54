package dhcl

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/digraph"
	"repro/internal/graph"
)

// randomDigraph returns a digraph with n vertices and ~m random directed
// edges, deterministic per seed.
func randomDigraph(n, m int, seed int64) *digraph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := digraph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	for i := 0; i < m; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u != v {
			_, _ = g.AddEdge(u, v)
		}
	}
	return g
}

// topLandmarks picks the k vertices with the highest total degree.
func topLandmarks(g *digraph.Digraph, k int) []uint32 {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di := g.OutDegree(ids[i]) + g.InDegree(ids[i])
		dj := g.OutDegree(ids[j]) + g.InDegree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return append([]uint32(nil), ids[:k]...)
}

// nonEdges samples directed non-edges.
func nonEdges(g *digraph.Digraph, count int, seed int64) [][2]uint32 {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	seen := map[[2]uint32]bool{}
	var out [][2]uint32
	for tries := 0; len(out) < count && tries < 400*count; tries++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v || g.HasEdge(u, v) || seen[[2]uint32{u, v}] {
			continue
		}
		seen[[2]uint32{u, v}] = true
		out = append(out, [2]uint32{u, v})
	}
	return out
}

func TestDigraphBasics(t *testing.T) {
	g := digraph.New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	if ok, _ := g.AddEdge(0, 1); !ok {
		t.Fatal("AddEdge failed")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("directed edge must not be symmetric")
	}
	if _, err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop must be rejected")
	}
	if _, err := g.AddEdge(0, 9); err == nil {
		t.Error("unknown vertex must be rejected")
	}
	if ok, _ := g.AddEdge(0, 1); ok {
		t.Error("duplicate must report false")
	}
	c := g.Clone()
	c.MustAddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("clone leaked")
	}
}

func TestDigraphForwardBackward(t *testing.T) {
	// 0→1→2, 2→0
	g := digraph.New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	dist := make([]graph.Dist, 3)
	g.Forward(0, dist)
	if dist[1] != 1 || dist[2] != 2 {
		t.Errorf("forward: %v", dist)
	}
	g.Backward(0, dist)
	if dist[2] != 1 || dist[1] != 2 {
		t.Errorf("backward: %v", dist)
	}
}

func TestBuildQueryMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomDigraph(45, 160, seed)
		idx, err := Build(g, topLandmarks(g, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for u := uint32(0); u < 45; u++ {
			want := make([]graph.Dist, 45)
			g.Forward(u, want)
			for v := uint32(0); v < 45; v++ {
				if got := idx.Query(u, v); got != want[v] {
					t.Fatalf("seed %d: Query(%d,%d): got %d, want %d", seed, u, v, got, want[v])
				}
			}
		}
	}
}

func TestBuildAsymmetricPath(t *testing.T) {
	// A directed path 0→1→2→3: distances only exist one way.
	g := digraph.New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	idx, err := Build(g, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Query(0, 3); got != 3 {
		t.Errorf("Query(0,3): got %d, want 3", got)
	}
	if got := idx.Query(3, 0); got != graph.Inf {
		t.Errorf("Query(3,0): got %d, want Inf", got)
	}
	// Forward labels exist, backward labels (to landmark 0) must be empty
	// since nothing reaches 0.
	for v := uint32(1); v <= 3; v++ {
		if lb := idx.Label(bwd, v); len(lb) != 0 {
			t.Errorf("Lb[%d] should be empty: %v", v, lb)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := randomDigraph(5, 10, 1)
	if _, err := Build(g, nil); err == nil {
		t.Error("no landmarks must fail")
	}
	if _, err := Build(g, []uint32{1, 1}); err == nil {
		t.Error("duplicate landmarks must fail")
	}
	if _, err := Build(g, []uint32{99}); err == nil {
		t.Error("unknown landmark must fail")
	}
}

func TestInsertEdgeMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomDigraph(40, 110, 50+seed)
		lm := topLandmarks(g, 3+int(seed%3))
		idx, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range nonEdges(g, 20, seed*7+1) {
			if _, err := idx.InsertEdge(e[0], e[1]); err != nil {
				t.Fatalf("seed %d insert %d: %v", seed, i, err)
			}
			fresh, err := Build(g, lm)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.EqualLabels(fresh); err != nil {
				t.Fatalf("seed %d after insert %d (%d→%d): %v", seed, i, e[0], e[1], err)
			}
		}
		if err := idx.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestInsertEdgeQueriesStayExact(t *testing.T) {
	g := randomDigraph(35, 90, 9)
	idx, err := Build(g, topLandmarks(g, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range nonEdges(g, 25, 4) {
		if _, err := idx.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for u := uint32(0); u < 35; u++ {
		want := make([]graph.Dist, 35)
		g.Forward(u, want)
		for v := uint32(0); v < 35; v++ {
			if got := idx.Query(u, v); got != want[v] {
				t.Fatalf("Query(%d,%d): got %d, want %d", u, v, got, want[v])
			}
		}
	}
}

func TestInsertEdgeErrors(t *testing.T) {
	g := randomDigraph(6, 8, 2)
	idx, err := Build(g, topLandmarks(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.InsertEdge(1, 1); err == nil {
		t.Error("self-loop must be rejected")
	}
	if _, err := idx.InsertEdge(0, 77); err == nil {
		t.Error("unknown vertex must be rejected")
	}
	e := nonEdges(g, 1, 5)[0]
	if _, err := idx.InsertEdge(e[0], e[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.InsertEdge(e[0], e[1]); err == nil {
		t.Error("duplicate must be rejected")
	}
}
func TestQuickInsertStreamMinimality(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		g := randomDigraph(25, 70, seed)
		lm := topLandmarks(g, 1+int(kRaw)%4)
		idx, err := Build(g, lm)
		if err != nil {
			return false
		}
		for _, e := range nonEdges(g, 10, seed+3) {
			if _, err := idx.InsertEdge(e[0], e[1]); err != nil {
				return false
			}
		}
		fresh, err := Build(g, lm)
		if err != nil {
			return false
		}
		return idx.EqualLabels(fresh) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAndEntries(t *testing.T) {
	g := randomDigraph(30, 80, 6)
	idx, err := Build(g, topLandmarks(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumEntries() <= 0 {
		t.Error("expected label entries")
	}
	if idx.Bytes() <= idx.NumEntries()*6 {
		t.Error("Bytes must include the highway")
	}
}
