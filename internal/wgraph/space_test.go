package wgraph

import (
	"testing"

	"repro/internal/graph"
)

// TestSpaceFitGrowsGeometrically pins the query scratch of a weighted graph
// that gains one vertex between queries: each query takes its scratch from
// the pool sized for the grown graph, the distance vectors are reallocated
// only when their capacity runs out, which after the first growth is not
// within a thousand insertions, and every entry the next query may read is
// graph.Inf once Sparsified has returned.
func TestSpaceFitGrowsGeometrically(t *testing.T) {
	const n, k = 10_000, 1_000
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	var sp SpacePool
	s := sp.Get(n)
	sp.Put(s)
	reallocs := 0
	for i := 1; i <= k; i++ {
		v := g.AddVertex()
		w := graph.Dist(i%7 + 1)
		g.MustAddEdge(v-1, v, w)
		u0, v0 := &s.DistU[0], &s.DistV[0]
		s = sp.Get(g.NumVertices())
		if &s.DistU[0] != u0 || &s.DistV[0] != v0 {
			reallocs++
		}
		if len(s.DistU) < n+i || len(s.DistV) < n+i {
			t.Fatalf("after %d insertions: %d/%d entries for %d vertices", i, len(s.DistU), len(s.DistV), n+i)
		}
		if d := g.Sparsified(v, v-1, graph.Inf, nil, s); d != w {
			t.Fatalf("after %d insertions: Sparsified(%d, %d) = %d, want %d", i, v, v-1, d, w)
		}
		for j := range s.DistU {
			if s.DistU[j] != graph.Inf || s.DistV[j] != graph.Inf {
				t.Fatalf("after %d insertions: entry %d is %d/%d, want Inf", i, j, s.DistU[j], s.DistV[j])
			}
		}
		sp.Put(s)
	}
	if reallocs > 1 {
		t.Fatalf("%d reallocations over %d insertions, want at most 1", reallocs, k)
	}
}
