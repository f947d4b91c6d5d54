package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddVertexAndEdge(t *testing.T) {
	g := New(4)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("new graph must be empty")
	}
	a := g.AddVertex()
	b := g.AddVertex()
	if a != 0 || b != 1 {
		t.Fatalf("vertex ids: got %d,%d", a, b)
	}
	ok, err := g.AddEdge(a, b)
	if err != nil || !ok {
		t.Fatalf("AddEdge: %v %v", ok, err)
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Error("edge must be undirected")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges: got %d, want 1", g.NumEdges())
	}
	ok, err = g.AddEdge(a, b)
	if err != nil || ok {
		t.Errorf("duplicate AddEdge: got %v,%v want false,nil", ok, err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges after duplicate: got %d", g.NumEdges())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	g.AddVertex()
	g.AddVertex()
	if _, err := g.AddEdge(0, 0); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: got %v", err)
	}
	if _, err := g.AddEdge(0, 5); !errors.Is(err, ErrVertexUnknown) {
		t.Errorf("unknown vertex: got %v", err)
	}
}

func TestEnsureVertex(t *testing.T) {
	g := New(0)
	g.EnsureVertex(4)
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices: got %d, want 5", g.NumVertices())
	}
	g.EnsureVertex(2) // no shrink
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices after smaller ensure: got %d", g.NumVertices())
	}
	if !g.HasVertex(4) || g.HasVertex(5) {
		t.Error("HasVertex wrong")
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	if g.Degree(0) != 2 || g.Degree(1) != 1 {
		t.Errorf("degrees: %d %d", g.Degree(0), g.Degree(1))
	}
	ns := g.Neighbors(0)
	if len(ns) != 2 {
		t.Fatalf("Neighbors(0): %v", ns)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("mutating clone leaked into original")
	}
	if c.NumEdges() != 2 || g.NumEdges() != 1 {
		t.Errorf("edge counts: clone %d orig %d", c.NumEdges(), g.NumEdges())
	}
}

func TestEdgesIteratesOnce(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 1)
	g.MustAddEdge(3, 0)
	seen := map[[2]uint32]int{}
	g.Edges(func(u, v uint32) {
		if u >= v {
			t.Errorf("Edges must yield u < v, got (%d,%d)", u, v)
		}
		seen[[2]uint32{u, v}]++
	})
	if len(seen) != 3 {
		t.Fatalf("Edges yielded %d pairs, want 3", len(seen))
	}
	for e, c := range seen {
		if c != 1 {
			t.Errorf("edge %v yielded %d times", e, c)
		}
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(2, 0)
	g.MustAddEdge(2, 1)
	g.MustAddEdge(2, 3)
	if got := g.MaxDegreeVertex(); got != 2 {
		t.Errorf("MaxDegreeVertex: got %d, want 2", got)
	}
}

func TestAddDistSaturates(t *testing.T) {
	cases := []struct{ a, b, want Dist }{
		{1, 2, 3},
		{Inf, 1, Inf},
		{1, Inf, Inf},
		{Inf, Inf, Inf},
		{Inf - 1, 2, Inf},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := AddDist(c.a, c.b); got != c.want {
			t.Errorf("AddDist(%d,%d): got %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHasEdgeQuickMirrorsMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(12)
		for i := 0; i < 12; i++ {
			g.AddVertex()
		}
		m := map[[2]uint32]bool{}
		for i := 0; i < 40; i++ {
			u := uint32(rng.Intn(12))
			v := uint32(rng.Intn(12))
			if u == v {
				continue
			}
			_, _ = g.AddEdge(u, v)
			a, b := min(u, v), max(u, v)
			m[[2]uint32{a, b}] = true
		}
		for u := uint32(0); u < 12; u++ {
			for v := uint32(0); v < 12; v++ {
				if u == v {
					continue
				}
				a, b := min(u, v), max(u, v)
				if g.HasEdge(u, v) != m[[2]uint32{a, b}] {
					return false
				}
			}
		}
		return uint64(len(m)) == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Error("edge survived removal")
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges: got %d, want 2", g.NumEdges())
	}
	if err := g.RemoveEdge(1, 2); !errors.Is(err, ErrEdgeUnknown) {
		t.Errorf("double delete: got %v, want ErrEdgeUnknown", err)
	}
	if err := g.RemoveEdge(0, 9); !errors.Is(err, ErrVertexUnknown) {
		t.Errorf("unknown vertex: got %v, want ErrVertexUnknown", err)
	}
	if err := g.RemoveEdge(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self-loop: got %v, want ErrSelfLoop", err)
	}
	// Removed edges can be reinserted.
	if ok, err := g.AddEdge(1, 2); !ok || err != nil {
		t.Fatalf("reinsert after delete: %v %v", ok, err)
	}
}

func TestRemoveEdgeRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		g := New(10)
		for i := 0; i < 10; i++ {
			g.AddVertex()
		}
		m := map[[2]uint32]bool{}
		for i := 0; i < 60; i++ {
			u := uint32(rng.Intn(10))
			v := uint32(rng.Intn(10))
			if u == v {
				continue
			}
			a, b := min(u, v), max(u, v)
			if rng.Float64() < 0.4 && m[[2]uint32{a, b}] {
				if err := g.RemoveEdge(u, v); err != nil {
					return false
				}
				delete(m, [2]uint32{a, b})
			} else {
				_, _ = g.AddEdge(u, v)
				m[[2]uint32{a, b}] = true
			}
		}
		for u := uint32(0); u < 10; u++ {
			for v := uint32(0); v < 10; v++ {
				if u == v {
					continue
				}
				a, b := min(u, v), max(u, v)
				if g.HasEdge(u, v) != m[[2]uint32{a, b}] {
					return false
				}
			}
		}
		return uint64(len(m)) == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFromEdgesMatchesAddEdge pins that the bulk constructor builds the
// graph repeated AddEdge calls build, adjacency order included, that its
// lists are independent (a later append copies out instead of writing
// into the next list), and that it rejects what AddEdge would.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 1200
	want := New(n)
	want.EnsureVertex(n - 1)
	var edges [][2]uint32
	for len(edges) < 5000 {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if ok, _ := want.AddEdge(u, v); ok {
			edges = append(edges, [2]uint32{u, v})
		}
	}
	at := func(es [][2]uint32) func(int) (uint32, uint32) {
		return func(i int) (uint32, uint32) { return es[i][0], es[i][1] }
	}
	g, err := FromEdges(n, len(edges), at(edges))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != n || g.NumEdges() != want.NumEdges() {
		t.Fatalf("%d vertices, %d edges; want %d, %d", g.NumVertices(), g.NumEdges(), n, want.NumEdges())
	}
	for v := uint32(0); v < n; v++ {
		if a, b := g.Neighbors(v), want.Neighbors(v); !slices.Equal(a, b) {
			t.Fatalf("vertex %d: %v, want %v", v, a, b)
		}
	}
	w := uint32(2) // vertex 1, whose list follows vertex 0's, must not change
	for g.HasEdge(0, w) {
		w++
	}
	if ok, err := g.AddEdge(0, w); !ok || err != nil {
		t.Fatalf("AddEdge(0,%d): %v, %v", w, ok, err)
	}
	if got := g.Neighbors(1); !slices.Equal(got, want.Neighbors(1)) {
		t.Fatalf("an append to vertex 0 reached vertex 1: %v", got)
	}
	for _, c := range []struct {
		es   [][2]uint32
		want error
	}{
		{[][2]uint32{{0, 1}, {2, 2}}, ErrSelfLoop},
		{[][2]uint32{{0, 1}, {1, 5}}, ErrVertexUnknown},
		{[][2]uint32{{0, 1}, {2, 3}, {1, 0}}, ErrEdgeExists},
	} {
		if _, err := FromEdges(4, len(c.es), at(c.es)); !errors.Is(err, c.want) {
			t.Errorf("edges %v: error %v, want %v", c.es, err, c.want)
		}
	}
}
