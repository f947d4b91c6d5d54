package hcl

import (
	"fmt"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// VerifyCover checks the highway cover property (Definition 3.2) and the
// exactness of the highway against ground-truth BFS distances: for every
// landmark r and vertex v, min over entries of δ_L(r_i,v) + δ_H(r,r_i) must
// equal d_G(r,v), and δ_H must hold exact landmark distances. It is O(|R|·m)
// and intended for tests and offline validation.
func (idx *Index) VerifyCover() error {
	n := idx.G.NumVertices()
	dist := make([]graph.Dist, n)
	for r := range idx.Landmarks {
		bfs.All(idx.G, idx.Landmarks[r], dist)
		for v := 0; v < n; v++ {
			got := idx.LandmarkDist(uint16(r), uint32(v))
			if got != dist[v] {
				return fmt.Errorf("hcl: cover violated: landmark %d (rank %d) to vertex %d: label says %s, BFS says %s",
					idx.Landmarks[r], r, v, distString(got), distString(dist[v]))
			}
		}
	}
	return nil
}

// VerifyMinimal checks minimality by rebuilding the labelling from scratch
// and requiring the label sets and highway to be identical: the minimal
// highway cover labelling of a graph for a fixed landmark set is unique (an
// entry (r,v) exists iff no shortest r–v path contains another landmark),
// so equality — not just equal size — must hold.
func (idx *Index) VerifyMinimal() error {
	fresh, err := Build(idx.G, idx.Landmarks)
	if err != nil {
		return fmt.Errorf("hcl: rebuilding for minimality check: %w", err)
	}
	return idx.EqualLabels(fresh)
}
