package bfs_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/testutil"
)

func TestAllOnPath(t *testing.T) {
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.AddVertex()
	}
	for i := 0; i < 4; i++ {
		g.MustAddEdge(uint32(i), uint32(i+1))
	}
	d := bfs.Distances(g, 0)
	for i, want := range []graph.Dist{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist[%d]: got %d, want %d", i, d[i], want)
		}
	}
}

func TestDistDisconnected(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	if got := bfs.Dist(g, 0, 3); got != graph.Inf {
		t.Errorf("bfs.Dist(0,3): got %d, want Inf", got)
	}
	if got := bfs.Dist(g, 2, 2); got != 0 {
		t.Errorf("bfs.Dist(2,2): got %d, want 0", got)
	}
}

func newScratch(n int) *bfs.QuerySpace {
	du := make([]graph.Dist, n)
	dv := make([]graph.Dist, n)
	for i := 0; i < n; i++ {
		du[i] = graph.Inf
		dv[i] = graph.Inf
	}
	return &bfs.QuerySpace{DistU: du, DistV: dv}
}

func TestSparsifiedNoAvoidMatchesBFS(t *testing.T) {
	g := testutil.RandomGraph(50, 90, 2)
	qs := newScratch(50)
	for u := uint32(0); u < 50; u++ {
		want := bfs.Distances(g, u)
		for v := uint32(0); v < 50; v++ {
			got := bfs.Sparsified(g, u, v, graph.Inf, nil, qs)
			if got != want[v] {
				t.Fatalf("bfs.Sparsified(%d,%d): got %d, want %d", u, v, got, want[v])
			}
		}
	}
}

func TestSparsifiedScratchRestored(t *testing.T) {
	g := testutil.RandomConnectedGraph(40, 60, 4)
	qs := newScratch(40)
	_ = bfs.Sparsified(g, 0, 39, graph.Inf, nil, qs)
	for i := 0; i < 40; i++ {
		if qs.DistU[i] != graph.Inf || qs.DistV[i] != graph.Inf {
			t.Fatalf("scratch not restored at %d: %d/%d", i, qs.DistU[i], qs.DistV[i])
		}
	}
}

func TestSparsifiedAvoidsVertices(t *testing.T) {
	// 0-1-2 and 0-3-4-2: avoiding vertex 1 must force the long route.
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.AddVertex()
	}
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {4, 2}} {
		g.MustAddEdge(e[0], e[1])
	}
	qs := newScratch(5)
	avoid := func(v uint32) bool { return v == 1 }
	if got := bfs.Sparsified(g, 0, 2, graph.Inf, avoid, qs); got != 3 {
		t.Errorf("avoiding 1: got %d, want 3", got)
	}
	avoidBoth := func(v uint32) bool { return v == 1 || v == 3 }
	if got := bfs.Sparsified(g, 0, 2, graph.Inf, avoidBoth, qs); got != graph.Inf {
		t.Errorf("avoiding 1 and 3: got %d, want Inf", got)
	}
}

func TestSparsifiedEndpointExemptFromAvoid(t *testing.T) {
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	qs := newScratch(3)
	avoid := func(v uint32) bool { return v == 0 || v == 2 }
	if got := bfs.Sparsified(g, 0, 2, graph.Inf, avoid, qs); got != 2 {
		t.Errorf("endpoints avoided: got %d, want 2", got)
	}
}

func TestSparsifiedRespectsBound(t *testing.T) {
	// The bound is exclusive: on a path of length 5 only bounds above 5
	// return it, and bound 0 hides even u == v.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	for i := 0; i < 5; i++ {
		g.MustAddEdge(uint32(i), uint32(i+1))
	}
	qs := newScratch(6)
	for _, c := range []struct {
		u, v        uint32
		bound, want graph.Dist
	}{
		{0, 5, 4, graph.Inf},
		{0, 5, 5, graph.Inf},
		{0, 5, 6, 5},
		{0, 5, graph.Inf, 5},
		{0, 5, 0, graph.Inf},
		{0, 1, 1, graph.Inf},
		{0, 1, 2, 1},
		{2, 2, 0, graph.Inf},
		{2, 2, 1, 0},
	} {
		if got := bfs.Sparsified(g, c.u, c.v, c.bound, nil, qs); got != c.want {
			t.Errorf("Sparsified(%d,%d) bound %d: got %d, want %d", c.u, c.v, c.bound, got, c.want)
		}
	}
}

// pruned returns g without the edges of avoided vertices other than u and
// v: the graph G[V\R] on which Sparsified searches.
func pruned(g *graph.Graph, avoid func(uint32) bool, u, v uint32) *graph.Graph {
	p := graph.New(g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		p.AddVertex()
	}
	g.Edges(func(x, y uint32) {
		xBad := avoid(x) && x != u && x != v
		yBad := avoid(y) && y != u && y != v
		if !xBad && !yBad {
			p.MustAddEdge(x, y)
		}
	})
	return p
}

// TestSparsifiedExclusiveBound checks Sparsified against BFS on the pruned
// graph at the bounds around the pruned distance d (testutil.BoundsAround).
// Half the graphs are cycles of odd and even length, so the meet-only last
// level finds a meeting at bound d+1 and misses one at bound d.
func TestSparsifiedExclusiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	qs := newScratch(40)
	for iter := 0; iter < 600; iter++ {
		n := 3 + rng.Intn(30)
		g := graph.New(n)
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
		d := bfs.Dist(pruned(g, avoid, u, v), u, v)
		for _, bound := range testutil.BoundsAround(d) {
			want := d
			if d >= bound {
				want = graph.Inf
			}
			if got := bfs.Sparsified(g, u, v, bound, avoid, qs); got != want {
				t.Fatalf("iter %d: Sparsified(%d,%d) avoiding %v, bound %d: got %d, want %d", iter, u, v, av, bound, got, want)
			}
		}
	}
}

func TestSparsifiedQuickAgainstAvoidedOracle(t *testing.T) {
	// Property: Sparsified equals a plain BFS on a copy of the graph with
	// the avoided vertices' edges removed (endpoints exempt).
	rng := rand.New(rand.NewSource(77))
	check := func() bool {
		n := 30
		g := testutil.RandomGraph(n, 55, rng.Int63())
		av1 := uint32(rng.Intn(n))
		av2 := uint32(rng.Intn(n))
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		avoid := func(x uint32) bool { return x == av1 || x == av2 }
		want := bfs.Dist(pruned(g, avoid, u, v), u, v)
		qs := newScratch(n)
		got := bfs.Sparsified(g, u, v, graph.Inf, avoid, qs)
		return got == want
	}
	for i := 0; i < 300; i++ {
		if !check() {
			t.Fatalf("iteration %d: sparsified search disagrees with pruned-graph oracle", i)
		}
	}
}

func TestSparsifiedQuickBoundNeverLies(t *testing.T) {
	// Property: with a finite bound, the result is the unbounded result
	// when that is below the bound, and Inf otherwise.
	f := func(seed int64, boundRaw uint8) bool {
		g := testutil.RandomGraph(25, 40, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
		u := uint32(rng.Intn(25))
		v := uint32(rng.Intn(25))
		bound := graph.Dist(boundRaw % 8)
		qs := newScratch(25)
		free := bfs.Sparsified(g, u, v, graph.Inf, nil, qs)
		got := bfs.Sparsified(g, u, v, bound, nil, qs)
		if free < bound {
			return got == free
		}
		return got == graph.Inf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestMeetOnlyLevelSkipsBlockedVertex pins the meet-only level against a
// blocked vertex: landmark 2, at distance 0 on both sides of the scratch,
// neighbours the frontier that level scans, and only the other endpoint,
// also at 0, may count as a meet there. Each case answers the BFS distance
// of the graph without the landmark at every bound around it, undirected
// and directed (arcs as listed), and leaves the blocked entries as they
// were and every other one graph.Inf.
func TestMeetOnlyLevelSkipsBlockedVertex(t *testing.T) {
	const n, land = 6, 2
	for _, c := range []struct {
		name string
		arcs [][2]uint32
	}{
		// u's frontier {3} neighbours the landmark; the path avoiding it
		// is 0-3-4-1.
		{"blocked neighbour of u's frontier", [][2]uint32{{0, 3}, {3, 2}, {2, 1}, {3, 4}, {4, 1}}},
		// u's frontier {3, 5} is the larger, so the level scans v's {1},
		// whose neighbour 2 is blocked.
		{"blocked neighbour of v's frontier", [][2]uint32{{0, 3}, {0, 5}, {3, 2}, {2, 1}, {3, 4}, {4, 1}}},
		// u and v are adjacent: the meet at v itself counts.
		{"endpoint meet", [][2]uint32{{0, 1}, {0, 2}, {2, 1}}},
	} {
		ug, dg := graph.New(n), digraph.New(n)
		keptU, keptD := graph.New(n), digraph.New(n) // without the landmark
		for i := 0; i < n; i++ {
			ug.AddVertex()
			dg.AddVertex()
			keptU.AddVertex()
			keptD.AddVertex()
		}
		for _, a := range c.arcs {
			ug.MustAddEdge(a[0], a[1])
			dg.MustAddEdge(a[0], a[1])
			if a[0] != land && a[1] != land {
				keptU.MustAddEdge(a[0], a[1])
				keptD.MustAddEdge(a[0], a[1])
			}
		}
		qs := newScratch(n)
		qs.DistU[land], qs.DistV[land] = 0, 0
		for _, s := range []struct {
			name   string
			want   graph.Dist
			search func(bound graph.Dist) graph.Dist
		}{
			{"undirected", bfs.Dist(keptU, 0, 1), func(bound graph.Dist) graph.Dist { return bfs.Sparsified(ug, 0, 1, bound, nil, qs) }},
			{"directed", keptD.Dist(0, 1), func(bound graph.Dist) graph.Dist { return dg.Sparsified(0, 1, bound, nil, qs) }},
		} {
			for _, bound := range testutil.BoundsAround(s.want) {
				want := s.want
				if want >= bound {
					want = graph.Inf
				}
				if got := s.search(bound); got != want {
					t.Errorf("%s, %s: bound %d: got %d, want %d", c.name, s.name, bound, got, want)
				}
				for x := range qs.DistU {
					blocked := graph.Inf
					if x == land {
						blocked = 0
					}
					if qs.DistU[x] != blocked || qs.DistV[x] != blocked {
						t.Fatalf("%s, %s: scratch at vertex %d is (%d, %d), want %d", c.name, s.name, x, qs.DistU[x], qs.DistV[x], blocked)
					}
				}
			}
		}
	}
}
