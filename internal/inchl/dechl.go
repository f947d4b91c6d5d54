// DecHL: the decremental counterpart of IncHL+. The paper covers only
// insertions; deletions are repaired here with the observation that removing
// an edge (a,b) can change the labelling of landmark r — its distances OR
// the covered/uncovered classification of its shortest-path DAG — only when
// (a,b) lies on that DAG, i.e. when the pre-delete endpoint distances differ
// by exactly one (|d_G(r,a) − d_G(r,b)| = 1). The affected test therefore
// costs two labelled lookups per landmark and no search at all; unaffected
// landmarks (the common case: an edge sits on the shortest-path DAGs of few
// landmarks) keep their entries untouched.
//
// Each affected landmark is repaired locally (hcl.RepairDeletion),
// starting from the endpoint one level further from it:
//
//   - Affected set: the vertices whose distance grows are exactly those
//     all of whose remaining shortest-path parents grow too, found by a
//     level-order walk from that endpoint over the children of affected
//     vertices only.
//   - New distances: each affected vertex is seeded from its best
//     neighbour outside the set, and the seeds relax inside it in distance
//     order; vertices no seed reaches became unreachable, so they lose
//     their entries and landmarks among them get Inf highway cells.
//   - Covered propagation: covered flags are recomputed in new-distance
//     order from the affected set and the vertices that lost a parent,
//     spreading only to children of vertices whose flag flipped.
//
// Why it is complete: neighbours' distances differ by at most one, so a
// vertex outside the affected set gains no new shortest-path parent; its
// entry can change only through a lost parent or a parent whose flag
// flipped, and both are followed. The edits are therefore exactly those a
// fresh build would make, and for a landmark whose DAG did not contain
// (a,b) neither distances nor DAG changed. The labelling stays identical to
// a fresh build (minimality is preserved). The per-landmark repairs fan
// across workers, buffering their edits as deltas that a single-threaded
// merge applies in rank order (hcl.Repair).

package inchl

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hcl"
)

// DeleteEdge removes the undirected edge (a,b) from the graph and repairs
// the labelling so that it is again the minimal highway cover labelling of
// the changed graph. Deleting an edge that does not exist is an error
// (graph.ErrEdgeUnknown), mirroring InsertEdge's update model.
func (u *Updater) DeleteEdge(a, b uint32) (Stats, error) {
	var st Stats
	g := u.G
	if err := hcl.CheckDelete(g, a, b); err != nil {
		return st, err
	}
	st.LandmarksTotal = u.NumLandmarks()

	// Affected test against the pre-delete labelling (still exact here).
	// heads[t] is the endpoint one level further from task t's landmark.
	var ds []hcl.Delta
	var heads []uint32
	for r := uint16(0); int(r) < u.NumLandmarks(); r++ {
		da, db := u.LandmarkDist(r, a), u.LandmarkDist(r, b)
		switch {
		case da != graph.Inf && da+1 == db:
			heads = append(heads, b)
		case db != graph.Inf && db+1 == da:
			heads = append(heads, a)
		default:
			st.LandmarksSkipped++
			continue
		}
		ds = append(ds, hcl.Delta{Rank: r})
	}

	if err := g.RemoveEdge(a, b); err != nil {
		return st, fmt.Errorf("inchl: delete (%d,%d): %w", a, b, err)
	}
	hcl.Repair(&u.Core, ds, true, func(ws *hcl.Scratch, t int, d *hcl.Delta) {
		hcl.RepairDeletion(&u.Core, ws, d, heads[t], g.Neighbors, g.Neighbors)
	})
	// Every change a repair made touches one vertex: AffectedSum counts
	// them, AffectedUnion the distinct vertices.
	st.AddEdits(ds)
	st.AffectedUnion = u.CountDistinct(func(see func(uint32)) {
		for i := range ds {
			u.Touched(&ds[i], see)
		}
	})
	return st, nil
}
