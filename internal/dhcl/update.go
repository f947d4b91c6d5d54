package dhcl

import (
	"repro/internal/graph"
	"repro/internal/hcl"
)

// InsertEdge inserts the directed edge a→b and repairs both label sets:
// forward distances can only change downstream of b, backward distances
// only upstream of a (the directed analogue of Lemma 4.3). The 2|R|
// (landmark, direction) passes fan across Workers cores — each task runs
// the IncHL+ kernel (hcl.RepairInsertion) in its orientation against the
// pre-update labelling (no repair has mutated anything yet: tasks only
// buffer deltas) — and the merge applies the deltas in serial pass order,
// forward before backward per rank. In the returned statistics,
// LandmarksSkipped counts eliminated (landmark, direction) passes, of
// 2|R|, and AffectedSum the affected vertices of both directions.
func (idx *Index) InsertEdge(a, b uint32) (hcl.Stats, error) {
	var st hcl.Stats
	g := idx.G
	if err := hcl.CheckInsert(g, a, b); err != nil {
		return st, err
	}
	if _, err := g.AddEdge(a, b); err != nil {
		return st, err
	}
	st.LandmarksTotal = idx.NumLandmarks()

	affected := make([]int, 2*idx.NumLandmarks()) // |Λ| per pass, -1 when skipped
	ds := make([]hcl.Delta, len(affected))
	for t := range ds {
		ds[t] = hcl.Delta{Rank: uint16(t / 2), Dir: t % 2}
	}
	hcl.Repair(&idx.Core, ds, false, func(ws *hcl.Scratch, t int, d *hcl.Delta) {
		affected[t] = idx.insertPass(ws, d, a, b)
	})
	for t := range ds {
		if affected[t] < 0 {
			st.LandmarksSkipped++
			continue
		}
		st.AffectedSum += affected[t]
		st.Add(ds[t].Changes())
	}
	return st, nil
}

// insertPass repairs one (landmark, direction) pass after the insertion of
// a→b and returns the size of its affected set, or -1 when the pass is
// eliminated: the new edge lies on no shortest path to or from r. A
// forward pass's new paths run r→…→a→b, so the jumped BFS starts at b
// over out-edges with depth d(r→a)+1; a backward pass mirrors this from a
// over in-edges with depth d(b→r)+1.
func (idx *Index) insertPass(ws *hcl.Scratch, d *hcl.Delta, a, b uint32) int {
	g := idx.G
	tail, head, children, parents := a, b, g.Out, g.In
	if d.Dir == bwd {
		tail, head, children, parents = b, a, g.In, g.Out
	}
	near := idx.PassDist(d.Dir, d.Rank, tail)
	if near == graph.Inf || idx.PassDist(d.Dir, d.Rank, head) <= near {
		return -1
	}
	return len(hcl.RepairInsertion(&idx.Core, ws, d, head, near+1, children, parents, nil))
}
