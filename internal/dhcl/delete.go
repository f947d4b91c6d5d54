// Decremental repair (DecHL) for the directed variant. A directed edge a→b
// affects landmark r's forward labels only when it lies on the forward
// shortest-path DAG (d(r→a) + 1 = d(r→b)) and its backward labels only when
// it lies on the backward DAG (d(b→r) + 1 = d(a→r)), so the affected test
// is four labelled lookups per landmark.
//
// Each affected (landmark, direction) pass is repaired locally by
// hcl.RepairDeletion, in the pass's orientation: a forward pass
// starts from b and treats out-arcs as children and in-arcs as parents, a
// backward pass starts from a with the roles swapped.
//
//   - Affected set: the vertices whose pass distance grows, found by a
//     level-order walk over the children of affected vertices — a vertex
//     is affected iff every remaining parent one level closer is.
//   - New distances: seeded from each affected vertex's best parent outside
//     the set and relaxed inside it in distance order; vertices left
//     unreached lost their path to or from the landmark, so their entries
//     go and landmarks among them get Inf highway cells.
//   - Covered propagation: covered flags are recomputed in new-distance
//     order from the affected set and the vertices that lost a parent,
//     spreading only to children of vertices whose flag flipped.
//
// Why it is complete: the two ends of an arc are at most one level apart
// in the pass direction, so a vertex outside the affected set gains no new
// parent and its flag changes only through a lost parent or a flipped one.
// The edits equal a fresh build's, which keeps the labelling identical to
// it.

package dhcl

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hcl"
)

// DeleteEdge removes the directed edge a→b and repairs both label sets.
// Deleting an edge that does not exist is an error (graph.ErrEdgeUnknown).
func (idx *Index) DeleteEdge(a, b uint32) (hcl.Stats, error) {
	var st hcl.Stats
	g := idx.G
	if err := hcl.CheckDelete(g, a, b); err != nil {
		return st, err
	}
	st.LandmarksTotal = idx.NumLandmarks()

	// Serial repair order: all forward passes, then all backward ones.
	var ds, back []hcl.Delta
	for r := uint16(0); int(r) < idx.NumLandmarks(); r++ {
		if da := idx.DistF(r, a); da != graph.Inf && graph.AddDist(da, 1) == idx.DistF(r, b) {
			ds = append(ds, hcl.Delta{Rank: r, Dir: fwd})
		} else {
			st.LandmarksSkipped++
		}
		if db := idx.DistB(r, b); db != graph.Inf && graph.AddDist(db, 1) == idx.DistB(r, a) {
			back = append(back, hcl.Delta{Rank: r, Dir: bwd})
		} else {
			st.LandmarksSkipped++
		}
	}
	ds = append(ds, back...)

	if err := g.RemoveEdge(a, b); err != nil {
		return st, fmt.Errorf("dhcl: delete (%d,%d): %w", a, b, err)
	}
	hcl.Repair(&idx.Core, ds, true, func(ws *hcl.Scratch, _ int, d *hcl.Delta) {
		if d.Dir == fwd {
			hcl.RepairDeletion(&idx.Core, ws, d, b, g.Out, g.In)
		} else {
			hcl.RepairDeletion(&idx.Core, ws, d, a, g.In, g.Out)
		}
	})
	st.AddEdits(ds)
	return st, nil
}
