package wgraph

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/testutil"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	if ok, err := g.AddEdge(0, 1, 4); !ok || err != nil {
		t.Fatalf("AddEdge: %v %v", ok, err)
	}
	if _, err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop must fail")
	}
	if _, err := g.AddEdge(0, 2, 0); err == nil {
		t.Error("zero weight must fail")
	}
	if _, err := g.AddEdge(0, 2, graph.Inf); err == nil {
		t.Error("infinite weight must fail")
	}
	if _, err := g.AddEdge(0, 9, 1); err == nil {
		t.Error("unknown vertex must fail")
	}
	if ok, _ := g.AddEdge(1, 0, 7); ok {
		t.Error("duplicate must report false")
	}
	if g.Weight(0, 1) != 4 {
		t.Error("duplicate insert must not change the weight")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges: %d", g.NumEdges())
	}
}

// TestDijkstraAgainstBellmanFord checks Dijkstra against Bellman–Ford on
// small random graphs. Every other graph draws weights up to 1<<30, so keys
// fill the radix heap's high buckets. A chain of 1<<30 weights pushes 1<<31
// while the last key popped is 1<<30 (bucket 32) and reaches 3<<30; every
// sum past it saturates graph.AddDist, and Dijkstra must report those
// vertices as graph.Inf.
func TestDijkstraAgainstBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 80; iter++ {
		n := 20
		maxW := 9
		if iter%2 == 1 {
			maxW = 1 << 30
		}
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddVertex()
		}
		for i := 0; i < 45; i++ {
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			if u != v {
				_, _ = g.AddEdge(u, v, 1+graph.Dist(rng.Intn(maxW)))
			}
		}
		checkDijkstra(t, g, uint32(rng.Intn(n)))
	}
	chain := New(7)
	for v := uint32(1); v < 6; v++ {
		chain.MustAddEdge(v-1, v, 1<<30)
	}
	chain.MustAddEdge(3, 6, 5)
	dist := checkDijkstra(t, chain, 0)
	if dist[3] != 3<<30 || dist[6] != 3<<30+5 || dist[4] != graph.Inf || dist[5] != graph.Inf {
		t.Errorf("chain distances %v: want 3<<30 at 3, 3<<30+5 at 6, Inf at 4 and 5", dist)
	}
}

// checkDijkstra compares g.Dijkstra from src with a Bellman–Ford oracle
// that adds with graph.AddDist, and returns the distances.
func checkDijkstra(t *testing.T, g *Graph, src uint32) []graph.Dist {
	t.Helper()
	n := g.NumVertices()
	want := make([]graph.Dist, n)
	for i := range want {
		want[i] = graph.Inf
	}
	want[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for u := uint32(0); u < uint32(n); u++ {
			for _, a := range g.Neighbors(u) {
				if nd := graph.AddDist(want[u], a.W); nd < want[a.To] {
					want[a.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	got := make([]graph.Dist, n)
	g.Dijkstra(src, got)
	if !slices.Equal(got, want) {
		t.Fatalf("Dijkstra from %d: %v, Bellman-Ford %v", src, got, want)
	}
	return got
}

// TestPQOrdering checks the radix heap against a sorted reference over
// random monotone interleavings of pushes and pops: keys are pushed at or
// above the last popped key, with duplicates of queued and popped keys and
// keys up to graph.Inf-1, which lands in bucket 32 while the last popped
// key is below 1<<31.
func TestPQOrdering(t *testing.T) {
	const top = graph.Inf - 1
	rng := rand.New(rand.NewSource(5))
	var pq PQ
	pushedTop := 0
	for round := 0; round < 300; round++ {
		pq.Reset()
		var ref []Item // queued items in push order
		last := graph.Dist(0)
		key := func() graph.Dist {
			switch rng.Intn(6) {
			case 0:
				return last
			case 1:
				if len(ref) > 0 {
					return ref[rng.Intn(len(ref))].D
				}
			case 2:
				return top
			case 3:
				return last + graph.Dist(rng.Int63n(int64(min(top-last, 15))+1))
			}
			return last + graph.Dist(rng.Int63n(int64(top-last)+1))
		}
		for step := 0; step < 200 || len(ref) > 0; step++ {
			if step < 200 && (len(ref) == 0 || rng.Intn(3) > 0) {
				it := Item{V: uint32(step), D: key()}
				if it.D == top && last < 1<<31 {
					pushedTop++
				}
				pq.PushItem(it)
				ref = append(ref, it)
			} else {
				it := pq.PopItem()
				lo := slices.MinFunc(ref, func(a, b Item) int { return cmp.Compare(a.D, b.D) }).D
				i := slices.Index(ref, it)
				if it.D != lo || i < 0 {
					t.Fatalf("round %d step %d: popped %+v, want an item of key %d from the queue", round, step, it, lo)
				}
				ref = slices.Delete(ref, i, i+1)
				last = it.D
			}
			if pq.Len() != len(ref) {
				t.Fatalf("round %d step %d: Len %d, want %d", round, step, pq.Len(), len(ref))
			}
		}
	}
	if pushedTop == 0 {
		t.Error("no key reached bucket 32")
	}

	// A reused queue allocates nothing once its buckets have grown.
	cycle := func() {
		pq.Reset()
		for d := graph.Dist(0); d < 64; d++ {
			pq.PushItem(Item{V: uint32(d), D: d * 3 % 64})
			pq.PushItem(Item{V: uint32(d), D: top - d})
		}
		for pq.Len() > 0 {
			pq.PopItem()
		}
	}
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Errorf("warm push/pop cycle: %v allocs, want 0", a)
	}
}

func wscratch(n int) *QuerySpace {
	du := make([]graph.Dist, n)
	dv := make([]graph.Dist, n)
	for i := 0; i < n; i++ {
		du[i] = graph.Inf
		dv[i] = graph.Inf
	}
	return &QuerySpace{DistU: du, DistV: dv}
}

func TestSparsifiedEndpoints(t *testing.T) {
	// 0 -2- 1 -2- 2, avoiding both endpoints must still find the path.
	g := New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 2)
	avoid := func(v uint32) bool { return v == 0 || v == 2 }
	if got := g.Sparsified(0, 2, graph.Inf, avoid, wscratch(3)); got != 4 {
		t.Errorf("got %d, want 4", got)
	}
	avoidMid := func(v uint32) bool { return v == 1 }
	if got := g.Sparsified(0, 2, graph.Inf, avoidMid, wscratch(3)); got != graph.Inf {
		t.Errorf("avoiding the middle: got %d, want Inf", got)
	}
	// The bound is exclusive, and bound 0 hides even u == v.
	for _, c := range []struct {
		u, v        uint32
		bound, want graph.Dist
	}{
		{0, 2, 3, graph.Inf},
		{0, 2, 4, graph.Inf},
		{0, 2, 5, 4},
		{0, 1, 2, graph.Inf},
		{0, 1, 3, 2},
		{1, 1, 0, graph.Inf},
		{1, 1, 1, 0},
	} {
		if got := g.Sparsified(c.u, c.v, c.bound, nil, wscratch(3)); got != c.want {
			t.Errorf("Sparsified(%d,%d) bound %d: got %d, want %d", c.u, c.v, c.bound, got, c.want)
		}
	}
}

// TestSparsifiedWeightedExclusiveBound checks Sparsified against Dijkstra on
// the pruned graph at the bounds around the pruned distance d
// (testutil.BoundsAround). Graphs are random or cycles of odd and even
// length, with unit weights (where the search behaves as a BFS), weights
// 1–4, or weights up to 1<<30 that saturate graph.AddDist.
func TestSparsifiedWeightedExclusiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	qs := wscratch(40)
	for iter := 0; iter < 900; iter++ {
		n := 3 + rng.Intn(30)
		maxW := []int{1, 4, 1 << 30}[iter%3]
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddVertex()
		}
		for i := 0; i < n; i++ {
			x, y := uint32(i), uint32((i+1)%n)
			if iter%2 == 1 {
				x, y = uint32(rng.Intn(n)), uint32(rng.Intn(n))
			}
			if x != y {
				_, _ = g.AddEdge(x, y, 1+graph.Dist(rng.Intn(maxW)))
			}
		}
		av := []uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}[:rng.Intn(3)]
		avoid := func(x uint32) bool { return slices.Contains(av, x) }
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		p := New(n)
		for i := 0; i < n; i++ {
			p.AddVertex()
		}
		for x := uint32(0); x < uint32(n); x++ {
			for _, a := range g.Neighbors(x) {
				if x < a.To && (!avoid(x) || x == u || x == v) && (!avoid(a.To) || a.To == u || a.To == v) {
					p.MustAddEdge(x, a.To, a.W)
				}
			}
		}
		d := p.Dist(u, v)
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

func TestRemoveEdgeWeighted(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 7)
	w, err := g.RemoveEdge(2, 1)
	if err != nil || w != 7 {
		t.Fatalf("RemoveEdge: weight %d, err %v (want 7, nil)", w, err)
	}
	if g.HasEdge(1, 2) || g.NumEdges() != 1 {
		t.Error("edge survived removal")
	}
	if _, err := g.RemoveEdge(1, 2); !errors.Is(err, graph.ErrEdgeUnknown) {
		t.Errorf("double delete: got %v, want ErrEdgeUnknown", err)
	}
	if _, err := g.RemoveEdge(0, 9); !errors.Is(err, graph.ErrVertexUnknown) {
		t.Errorf("unknown vertex: got %v, want ErrVertexUnknown", err)
	}
	if _, err := g.RemoveEdge(2, 2); !errors.Is(err, graph.ErrSelfLoop) {
		t.Errorf("self-loop: got %v, want ErrSelfLoop", err)
	}
	if ok, err := g.AddEdge(1, 2, 9); !ok || err != nil {
		t.Fatalf("reinsert after delete: %v %v", ok, err)
	}
	if g.Weight(1, 2) != 9 {
		t.Error("reinserted weight lost")
	}
}
