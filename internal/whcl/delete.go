// Decremental repair (DecHL) for the weighted variant: an edge (a,b,w) lies
// on the shortest-path DAG of landmark r iff the pre-delete endpoint
// distances satisfy d(r,a) + w = d(r,b) or the mirror image, so the affected
// test costs two labelled lookups per landmark. Only affected landmarks are
// repaired, by re-running their covered-flag Dijkstra over the updated
// graph; the pass replaces every r-entry and the highway row r, dropping
// entries and resetting highway cells to Inf for vertices the deletion
// disconnected. Unaffected landmarks keep exact distances and an unchanged
// shortest-path DAG, so their entries are already the fresh-build ones.

package whcl

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// DeleteEdge removes the undirected weighted edge (a,b) and repairs the
// labelling. Deleting an edge that does not exist is an error
// (graph.ErrEdgeUnknown).
func (idx *Index) DeleteEdge(a, b uint32) (Stats, error) {
	var st Stats
	g := idx.G
	if err := CheckDelete(g, a, b); err != nil {
		return st, err
	}
	w := g.Weight(a, b)
	st.LandmarksTotal = idx.NumLandmarks()

	var ds []hcl.Delta
	for r := uint16(0); int(r) < idx.NumLandmarks(); r++ {
		da := idx.LandmarkDist(r, a)
		db := idx.LandmarkDist(r, b)
		onDAG := (da != graph.Inf && graph.AddDist(da, w) == db) ||
			(db != graph.Inf && graph.AddDist(db, w) == da)
		if onDAG {
			ds = append(ds, hcl.Delta{Rank: r})
		} else {
			st.LandmarksSkipped++
		}
	}

	if _, err := g.RemoveEdge(a, b); err != nil {
		return st, fmt.Errorf("whcl: delete (%d,%d): %w", a, b, err)
	}
	hcl.Repair(&idx.Core, &scratches, ds, true, func(ws *scratch, _ int, d *hcl.Delta) {
		idx.rebuildLandmark(ws, d)
	})
	st.AddEdits(ds)
	return st, nil
}

// rebuildLandmark runs the covered-flag Dijkstra of landmark d.Rank over
// the current graph and buffers the replacement of its entries and highway
// row into d, Inf resets for disconnected vertices included (see
// hcl.Core.Diff). Weights are at least 1, so every shortest-path parent of
// a vertex settles strictly before it: a vertex's covered flag is final the
// moment it settles.
func (idx *Index) rebuildLandmark(ws *scratch, d *hcl.Delta) {
	dist, covered := ws.Arrays(idx.G.NumVertices())
	for i := range dist {
		dist[i] = graph.Inf
	}
	root := idx.Landmarks[d.Rank]
	dist[root] = 0
	pq := &ws.pq
	pq.Reset()
	pq.PushItem(wgraph.Item{V: root})
	for pq.Len() > 0 {
		it := pq.PopItem()
		v := it.V
		if it.D != dist[v] {
			continue // stale queue entry
		}
		cov := idx.IsLandmark(v) && v != root
		for _, a := range idx.G.Neighbors(v) {
			if nd := graph.AddDist(it.D, a.W); nd < dist[a.To] {
				dist[a.To] = nd
				pq.PushItem(wgraph.Item{V: a.To, D: nd})
			} else if !cov && graph.AddDist(dist[a.To], a.W) == it.D && covered[a.To] {
				cov = true // a settled shortest-path parent is covered
			}
		}
		covered[v] = cov
	}
	idx.Diff(d, dist, covered)
}

// DeleteVertex disconnects vertex v by deleting all of its incident edges.
// The id survives as an isolated vertex; deleting a landmark is rejected.
func (idx *Index) DeleteVertex(v uint32) (Stats, error) {
	var agg Stats
	g := idx.G
	if err := CheckDeleteVertex(g, &idx.Core, v); err != nil {
		return agg, err
	}
	agg.LandmarksTotal = idx.NumLandmarks()
	for _, a := range append([]wgraph.Arc(nil), g.Neighbors(v)...) {
		st, err := idx.DeleteEdge(v, a.To)
		if err != nil {
			return agg, err
		}
		agg.Plus(st)
	}
	return agg, nil
}

// CheckDelete is DeleteEdge's validity check: (a,b) must be an edge of g
// (see CheckInsert).
func CheckDelete(g graph.EdgeSet, a, b uint32) error {
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return fmt.Errorf("whcl: delete (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return fmt.Errorf("whcl: delete (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if !g.HasEdge(a, b) {
		return fmt.Errorf("whcl: delete (%d,%d): %w", a, b, graph.ErrEdgeUnknown)
	}
	return nil
}

// CheckDeleteVertex is DeleteVertex's validity check: v must be a vertex
// of g and not one of c's landmarks.
func CheckDeleteVertex(g graph.EdgeSet, c *hcl.Core, v uint32) error {
	if !g.HasVertex(v) {
		return fmt.Errorf("whcl: delete vertex %d: %w", v, graph.ErrVertexUnknown)
	}
	if c.IsLandmark(v) {
		return fmt.Errorf("whcl: delete vertex %d: cannot delete a landmark", v)
	}
	return nil
}
