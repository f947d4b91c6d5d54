package hcl

import (
	"fmt"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// VerifyCover checks the highway cover property (Definition 3.2) and the
// exactness of the highway against ground-truth distances, in every label
// direction: for every landmark r and vertex v, PassDist must equal the
// distance that search gives, which fills dist with the distances from
// the landmark src over direction dir's arcs (BFS, a forward or backward
// BFS, or Dijkstra). It is O(|R|·m) per direction and intended for tests
// and offline validation.
func (c *Core) VerifyCover(search func(dir int, src uint32, dist []graph.Dist)) error {
	dist := make([]graph.Dist, len(c.rankArr))
	for dir := 0; dir < c.kind.Dirs; dir++ {
		for r, src := range c.Landmarks {
			search(dir, src, dist)
			for v, want := range dist {
				if got := c.PassDist(dir, uint16(r), uint32(v)); got != want {
					return fmt.Errorf("hcl: cover violated in direction %d: landmark %d (rank %d), vertex %d: label says %s, search says %s",
						dir, src, r, v, distString(got), distString(want))
				}
			}
		}
	}
	return nil
}

// VerifyCover audits the labelling against ground-truth BFS distances
// (Core.VerifyCover).
func (idx *Index) VerifyCover() error {
	return idx.Core.VerifyCover(func(_ int, src uint32, dist []graph.Dist) { bfs.All(idx.G, src, dist) })
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
