// Decremental repair (DecHL) for the weighted variant: an edge (a,b,w) lies
// on the shortest-path DAG of landmark r iff the pre-delete endpoint
// distances satisfy d(r,a) + w = d(r,b) or the mirror image, so the affected
// test costs two labelled lookups per landmark. Only affected landmarks are
// repaired, each by the local DecHL kernel of the unit-weight variants
// (hcl.RepairDeletion) over weighted arcs, starting from the endpoint
// farther from it: the vertices whose distance grows, their new distances
// from the set's boundary in Dijkstra order, and the covered flags that can
// flip, with entries dropped and highway cells reset to Inf for whatever
// the deletion disconnected. Unaffected landmarks keep exact distances and
// an unchanged shortest-path DAG, so their entries are already the
// fresh-build ones.

package whcl

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hcl"
)

// DeleteEdge removes the undirected weighted edge (a,b) and repairs the
// labelling. Deleting an edge that does not exist is an error
// (graph.ErrEdgeUnknown).
func (idx *Index) DeleteEdge(a, b uint32) (Stats, error) {
	var st Stats
	g := idx.G
	if err := hcl.CheckDelete(g, a, b); err != nil {
		return st, err
	}
	w := g.Weight(a, b)
	st.LandmarksTotal = idx.NumLandmarks()

	// heads[t] is the endpoint farther from task t's landmark.
	var ds []hcl.Delta
	var heads []uint32
	for r := uint16(0); int(r) < idx.NumLandmarks(); r++ {
		da, db := idx.LandmarkDist(r, a), idx.LandmarkDist(r, b)
		switch {
		case da != graph.Inf && graph.AddDist(da, w) == db:
			heads = append(heads, b)
		case db != graph.Inf && graph.AddDist(db, w) == da:
			heads = append(heads, a)
		default:
			st.LandmarksSkipped++
			continue
		}
		ds = append(ds, hcl.Delta{Rank: r})
	}

	if _, err := g.RemoveEdge(a, b); err != nil {
		return st, fmt.Errorf("whcl: delete (%d,%d): %w", a, b, err)
	}
	hcl.Repair(&idx.Core, ds, true, func(ws *hcl.Scratch, t int, d *hcl.Delta) {
		hcl.RepairDeletion(&idx.Core, ws, d, heads[t], g.Neighbors, g.Neighbors)
	})
	st.AddEdits(ds)
	return st, nil
}
