package wgraph

import (
	"testing"

	"repro/internal/graph"
)

// TestSpaceFitGrowsGeometrically pins the query scratch of a graph that
// gains one vertex between queries: the distance vectors are reallocated
// only when their capacity runs out, which after the first growth is not
// within a thousand insertions, and every entry the next query may read is
// graph.Inf. Get is the pool plus fit.
func TestSpaceFitGrowsGeometrically(t *testing.T) {
	const n, k = 10_000, 1_000
	var sp SpacePool
	s := sp.Get(n)
	reallocs := 0
	for i := 1; i <= k; i++ {
		u, v := &s.DistU[0], &s.DistV[0]
		s.fit(n + i)
		if &s.DistU[0] != u || &s.DistV[0] != v {
			reallocs++
		}
		if len(s.DistU) < n+i || len(s.DistV) < n+i {
			t.Fatalf("after %d insertions: %d/%d entries for %d vertices", i, len(s.DistU), len(s.DistV), n+i)
		}
		for j := range s.DistU {
			if s.DistU[j] != graph.Inf || s.DistV[j] != graph.Inf {
				t.Fatalf("after %d insertions: entry %d is %d/%d, want Inf", i, j, s.DistU[j], s.DistV[j])
			}
		}
	}
	if reallocs > 1 {
		t.Fatalf("%d reallocations over %d insertions, want at most 1", reallocs, k)
	}
	sp.Put(s)
	if s := sp.Get(n + k + 1); len(s.DistU) < n+k+1 || s.DistU[n+k] != graph.Inf || s.DistV[n+k] != graph.Inf {
		t.Fatal("Get returned scratch too short or not Inf")
	}
}
