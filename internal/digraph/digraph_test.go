package digraph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/testutil"
)

func cycle(n int) *Digraph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(uint32(i), uint32((i+1)%n))
	}
	return g
}

func TestCycleDistances(t *testing.T) {
	g := cycle(5)
	if got := g.Dist(0, 4); got != 4 {
		t.Errorf("Dist(0,4): got %d, want 4 (must go the long way)", got)
	}
	if got := g.Dist(4, 0); got != 1 {
		t.Errorf("Dist(4,0): got %d, want 1", got)
	}
}

func TestInOutAdjacency(t *testing.T) {
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 2)
	if g.OutDegree(2) != 0 || g.InDegree(2) != 2 {
		t.Errorf("degrees of 2: out %d in %d", g.OutDegree(2), g.InDegree(2))
	}
	if len(g.Out(0)) != 1 || g.Out(0)[0] != 2 {
		t.Errorf("Out(0): %v", g.Out(0))
	}
	if len(g.In(2)) != 2 {
		t.Errorf("In(2): %v", g.In(2))
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges: %d", g.NumEdges())
	}
}

func dscratch(n int) *bfs.QuerySpace {
	qs := &bfs.QuerySpace{DistU: make([]graph.Dist, n), DistV: make([]graph.Dist, n)}
	for i := range qs.DistU {
		qs.DistU[i] = graph.Inf
		qs.DistV[i] = graph.Inf
	}
	return qs
}

// pruned returns g without the arcs of avoided vertices other than u and
// v: the digraph on which Sparsified searches.
func pruned(g *Digraph, avoid func(uint32) bool, u, v uint32) *Digraph {
	p := New(g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		p.AddVertex()
	}
	kept := func(x uint32) bool { return !avoid(x) || x == u || x == v }
	for x := uint32(0); x < uint32(g.NumVertices()); x++ {
		for _, y := range g.Out(x) {
			if kept(x) && kept(y) {
				p.MustAddEdge(x, y)
			}
		}
	}
	return p
}

func TestSparsifiedDirectedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for iter := 0; iter < 200; iter++ {
		n := 25
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddVertex()
		}
		for i := 0; i < 60; i++ {
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			if u != v {
				_, _ = g.AddEdge(u, v)
			}
		}
		av := uint32(rng.Intn(n))
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		avoid := func(x uint32) bool { return x == av }
		want := pruned(g, avoid, u, v).Dist(u, v)
		qs := dscratch(n)
		got := g.Sparsified(u, v, graph.Inf, avoid, qs)
		if got != want {
			t.Fatalf("iter %d: Sparsified(%d,%d) avoiding %d: got %d, want %d", iter, u, v, av, got, want)
		}
		for i := 0; i < n; i++ {
			if qs.DistU[i] != graph.Inf || qs.DistV[i] != graph.Inf {
				t.Fatal("scratch not restored")
			}
		}
	}
}

func TestSparsifiedDirectedBound(t *testing.T) {
	// The bound is exclusive: 0→5 on the 8-cycle is 5 long, 5→0 is 3.
	g := cycle(8)
	qs := dscratch(8)
	for _, c := range []struct {
		u, v        uint32
		bound, want graph.Dist
	}{
		{0, 5, 4, graph.Inf},
		{0, 5, 5, graph.Inf},
		{0, 5, 6, 5},
		{5, 0, 3, graph.Inf},
		{5, 0, 4, 3},
		{0, 1, 1, graph.Inf},
		{0, 1, 2, 1},
		{3, 3, 0, graph.Inf},
		{3, 3, 1, 0},
	} {
		if got := g.Sparsified(c.u, c.v, c.bound, nil, qs); got != c.want {
			t.Errorf("Sparsified(%d,%d) bound %d: got %d, want %d", c.u, c.v, c.bound, got, c.want)
		}
	}
}

// TestSparsifiedDirectedExclusiveBound checks Sparsified against BFS on the
// pruned digraph at the bounds around the pruned distance d
// (testutil.BoundsAround). Half the graphs are directed cycles of odd and
// even length, so the meet-only last level both finds and misses a
// meeting.
func TestSparsifiedDirectedExclusiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	qs := dscratch(40)
	for iter := 0; iter < 600; iter++ {
		n := 3 + rng.Intn(30)
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddVertex()
		}
		for i := 0; i < 2*n; i++ {
			x, y := uint32(i%n), uint32((i+1)%n)
			if iter%2 == 1 {
				x, y = uint32(rng.Intn(n)), uint32(rng.Intn(n))
			}
			if x != y {
				_, _ = g.AddEdge(x, y)
			}
		}
		av := []uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}[:rng.Intn(3)]
		avoid := func(x uint32) bool { return slices.Contains(av, x) }
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		d := pruned(g, avoid, u, v).Dist(u, v)
		for _, bound := range testutil.BoundsAround(d) {
			want := d
			if d >= bound {
				want = graph.Inf
			}
			if got := g.Sparsified(u, v, bound, avoid, qs); got != want {
				t.Fatalf("iter %d: Sparsified(%d,%d) avoiding %v, bound %d: got %d, want %d", iter, u, v, av, bound, got, want)
			}
		}
	}
}

func TestCloneAndErrors(t *testing.T) {
	g := cycle(4)
	c := g.Clone()
	c.MustAddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("clone leaked")
	}
	if _, err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop must fail")
	}
	if _, err := g.AddEdge(0, 50); err == nil {
		t.Error("unknown vertex must fail")
	}
	if ok, _ := g.AddEdge(0, 1); ok {
		t.Error("duplicate must report false")
	}
}

func TestRemoveEdgeDirected(t *testing.T) {
	g := cycle(4)
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 2) {
		t.Error("edge survived removal")
	}
	if g.NumEdges() != 3 {
		t.Errorf("edges: got %d, want 3", g.NumEdges())
	}
	for _, w := range g.In(2) {
		if w == 1 {
			t.Error("in-adjacency not cleaned")
		}
	}
	if err := g.RemoveEdge(2, 1); !errors.Is(err, graph.ErrEdgeUnknown) {
		t.Errorf("reverse direction was never inserted: got %v, want ErrEdgeUnknown", err)
	}
	if err := g.RemoveEdge(0, 9); !errors.Is(err, graph.ErrVertexUnknown) {
		t.Errorf("unknown vertex: got %v, want ErrVertexUnknown", err)
	}
	if err := g.RemoveEdge(3, 3); !errors.Is(err, graph.ErrSelfLoop) {
		t.Errorf("self-loop: got %v, want ErrSelfLoop", err)
	}
	if ok, err := g.AddEdge(1, 2); !ok || err != nil {
		t.Fatalf("reinsert after delete: %v %v", ok, err)
	}
}
