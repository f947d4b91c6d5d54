package hcl

import (
	"testing"

	"repro/internal/bfs"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/wgraph"
)

// restoredEdges is a path 0-1-2-3-4-5 through landmark 2, a detour
// 0-6-7-8-5 around it, and a component {9, 10} without a landmark.
var restoredEdges = [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 6}, {6, 7}, {7, 8}, {8, 5}, {9, 10}}

// restoredQueries are the queries of TestQueryRestoresPooledScratch: one
// whose search finds the detour, one whose search stops at its bound (the
// detour is longer than the path through the landmark), a disconnected
// pair, and a pair no landmark reaches.
var restoredQueries = []struct {
	u, v uint32
	want graph.Dist
}{{0, 5, 4}, {0, 4, 4}, {0, 9, graph.Inf}, {9, 10, 1}}

// TestQueryRestoresPooledScratch checks that Query, which blocks every
// landmark in its scratch for the search's length, leaves every idle
// scratch of bfs.Spaces as the searches require it: each distance entry
// graph.Inf, the landmarks' included. It runs on all three variants, each
// edge being a pair of arcs on the directed one.
func TestQueryRestoresPooledScratch(t *testing.T) {
	const n = 11
	g, dg, wg := graph.New(n), digraph.New(n), wgraph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
		dg.AddVertex()
		wg.AddVertex()
	}
	for _, e := range restoredEdges {
		g.MustAddEdge(e[0], e[1])
		dg.MustAddEdge(e[0], e[1])
		dg.MustAddEdge(e[1], e[0])
		wg.MustAddEdge(e[0], e[1], 1)
	}
	checkQueryRestores(t, "undirected", g)
	checkQueryRestores(t, "directed", dg)
	checkQueryRestores(t, "weighted", wg)
}

func checkQueryRestores[G Substrate[G]](t *testing.T, name string, g G) {
	t.Helper()
	x, err := Build(g, []uint32{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range restoredQueries {
		if got := x.Query(q.u, q.v); got != q.want {
			t.Fatalf("%s: Query(%d,%d): got %d, want %d", name, q.u, q.v, got, q.want)
		}
		checkSpacesRestored(t, g.NumVertices())
	}
}

// checkSpacesRestored takes every idle scratch out of bfs.Spaces, fails
// unless each of its distance entries is graph.Inf, and puts them back. A
// scratch no search has used yet (no touched capacity) means the pool is
// drained: Get takes another processor's idle scratch before it makes one.
func checkSpacesRestored(t *testing.T, n int) {
	t.Helper()
	var held []*bfs.QuerySpace
	defer func() {
		for _, s := range held {
			bfs.Spaces.Put(s)
		}
	}()
	for {
		s := bfs.Spaces.Get(n)
		held = append(held, s)
		for x := range s.DistU {
			if s.DistU[x] != graph.Inf || s.DistV[x] != graph.Inf {
				t.Fatalf("pooled scratch at vertex %d is (%d, %d), want Inf", x, s.DistU[x], s.DistV[x])
			}
		}
		if cap(s.Touched) == 0 {
			return
		}
	}
}
