package whcl

import (
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// Stats reports what one weighted update did. The variant counts no
// affected union: AffectedSum is its affected-vertex figure.
type Stats = hcl.Stats

// InsertEdge inserts the weighted edge (a,b,w) and repairs the labelling:
// per landmark, the IncHL+ kernel (hcl.RepairInsertion) runs a jumped
// Dijkstra from the far endpoint that collects the vertices whose shortest
// path to the landmark now runs through the new edge, then classifies them
// as covered or uncovered in distance order. The per-landmark tasks fan
// across Workers cores against the pre-update labelling (tasks only buffer
// deltas), and the merge applies the deltas in rank order.
func (idx *Index) InsertEdge(a, b uint32, w graph.Dist) (Stats, error) {
	var st Stats
	g := idx.G
	if err := CheckInsert(g, a, b, w); err != nil {
		return st, err
	}
	if _, err := g.AddEdge(a, b, w); err != nil {
		return st, err
	}
	st.LandmarksTotal = idx.NumLandmarks()

	affected := make([]int, idx.NumLandmarks()) // |Λ_r|, -1 when skipped
	ds := make([]hcl.Delta, len(affected))
	for r := range ds {
		ds[r].Rank = uint16(r)
	}
	hcl.Repair(&idx.Core, ds, false, func(ws *hcl.Scratch, r int, d *hcl.Delta) {
		affected[r] = idx.insertPass(ws, d, a, b, w)
	})
	for r := range ds {
		if affected[r] < 0 {
			st.LandmarksSkipped++
			continue
		}
		st.AffectedSum += affected[r]
		st.Add(ds[r].Changes())
	}
	return st, nil
}

// insertPass repairs landmark d.Rank after the insertion of (a,b,w) and
// returns the size of its affected set, or -1 when the landmark is
// eliminated: the edge is unreachable from it, or the nearer endpoint's
// distance plus w exceeds the farther one's, so no shortest path can use
// the edge (Λ_r = ∅).
func (idx *Index) insertPass(ws *hcl.Scratch, d *hcl.Delta, a, b uint32, w graph.Dist) int {
	da, db := idx.LandmarkDist(d.Rank, a), idx.LandmarkDist(d.Rank, b)
	if db < da {
		b, da, db = a, db, da
	}
	pi := graph.AddDist(da, w)
	if da == graph.Inf || pi > db {
		return -1
	}
	g := idx.G
	return len(hcl.RepairInsertion(&idx.Core, ws, d, b, pi, g.Neighbors, g.Neighbors, nil))
}

// CheckInsert is InsertEdge's validity check: hcl.CheckInsert, and the
// graph must be able to hold the edge (wgraph.CheckArc: weight in range).
func CheckInsert(g graph.EdgeSet, a, b uint32, w graph.Dist) error {
	if err := hcl.CheckInsert(g, a, b); err != nil {
		return err
	}
	return wgraph.CheckArc(a, b, w)
}
