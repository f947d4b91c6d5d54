package hcl

import (
	"fmt"

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
