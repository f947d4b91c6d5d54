// DecHL: the decremental counterpart of IncHL+. The paper covers only
// insertions; deletions are repaired here with the observation that removing
// an edge (a,b) can change the labelling of landmark r — its distances OR
// the covered/uncovered classification of its shortest-path DAG — only when
// (a,b) lies on that DAG, i.e. when the pre-delete endpoint distances differ
// by exactly one (|d_G(r,a) − d_G(r,b)| = 1). The affected test therefore
// costs two labelled lookups per landmark and no search at all; unaffected
// landmarks (the common case: an edge sits on the shortest-path DAGs of few
// landmarks) keep their entries untouched. Each affected landmark is then
// patched by re-running its construction BFS over the updated graph — the
// rebuilds fan across workers, buffering their edits as deltas that a
// single-threaded merge applies in rank order (hcl.Repair). The rebuild
// also drops the entries and resets to Inf the highway cells of vertices
// that became unreachable, since deletions are the only updates that can
// disconnect the graph.
//
// The resulting labelling is identical to a fresh build (minimality is
// preserved): rebuilt landmarks get exactly their fresh entries, and for a
// landmark whose shortest-path DAG did not contain (a,b), neither its
// distances nor its shortest-path structure changed, so its fresh entries
// equal its old ones.

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
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return st, fmt.Errorf("inchl: delete (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return st, fmt.Errorf("inchl: delete (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if !g.HasEdge(a, b) {
		return st, fmt.Errorf("inchl: delete (%d,%d): %w", a, b, graph.ErrEdgeUnknown)
	}
	st.LandmarksTotal = u.NumLandmarks()

	// Affected test against the pre-delete labelling (still exact here).
	var ds []hcl.Delta
	for r := 0; r < u.NumLandmarks(); r++ {
		if edgeOnDAG(u.LandmarkDist(uint16(r), a), u.LandmarkDist(uint16(r), b), 1) {
			ds = append(ds, hcl.Delta{Rank: uint16(r)})
		} else {
			st.LandmarksSkipped++
		}
	}

	if err := g.RemoveEdge(a, b); err != nil {
		return st, fmt.Errorf("inchl: delete (%d,%d): %w", a, b, err)
	}
	hcl.Repair(&u.Core, &scratches, ds, true, func(sc *scratch, _ int, d *hcl.Delta) {
		u.RebuildBFS(&sc.Scratch, d, g.Neighbors)
	})
	// Every change a rebuild made touches one vertex: AffectedSum counts
	// them, AffectedUnion the distinct vertices.
	for i := range ds {
		ch := ds[i].Changes()
		st.add(ch)
		st.AffectedSum += ch.Total()
	}
	st.AffectedUnion = u.countDistinct(func(see func(uint32)) {
		for i := range ds {
			u.Touched(&ds[i], see)
		}
	})
	return st, nil
}

// edgeOnDAG reports whether an edge of weight w whose endpoints sit at
// distances da and db from a landmark lies on that landmark's shortest-path
// DAG. Inf-saturated arithmetic makes the test false when either endpoint is
// unreachable (adjacent vertices are either both reachable or both not).
func edgeOnDAG(da, db, w graph.Dist) bool {
	return (da != graph.Inf && graph.AddDist(da, w) == db) ||
		(db != graph.Inf && graph.AddDist(db, w) == da)
}

// DeleteVertex disconnects vertex v by deleting all of its incident edges,
// one DecHL repair per edge. The vertex itself keeps its id (the paper's
// contiguous 0..n-1 vertex universe does not renumber); once isolated it is
// unreachable from everything and queries against it answer Inf. Deleting a
// landmark is rejected: landmarks anchor the labelling.
func (u *Updater) DeleteVertex(v uint32) (Stats, error) {
	var agg Stats
	g := u.G
	if !g.HasVertex(v) {
		return agg, fmt.Errorf("inchl: delete vertex %d: %w", v, graph.ErrVertexUnknown)
	}
	if u.IsLandmark(v) {
		return agg, fmt.Errorf("inchl: delete vertex %d: cannot delete a landmark", v)
	}
	agg.LandmarksTotal = u.NumLandmarks()
	for _, w := range append([]uint32(nil), g.Neighbors(v)...) {
		st, err := u.DeleteEdge(v, w)
		if err != nil {
			return agg, err
		}
		agg.plus(st)
	}
	return agg, nil
}
