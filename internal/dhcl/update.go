package dhcl

import "repro/internal/hcl"

// InsertEdge inserts the directed edge a→b and repairs both label sets
// (hcl.InsertEdge): forward distances can only change downstream of b,
// backward distances only upstream of a (the directed analogue of Lemma
// 4.3). Each (landmark, direction) pass is one task, rank-major, forward
// before backward per rank. In the returned statistics, LandmarksSkipped
// counts eliminated passes, of 2|R|, and AffectedSum the affected vertices
// of both directions.
func (idx *Index) InsertEdge(a, b uint32) (hcl.Stats, error) {
	g := idx.G
	return hcl.InsertEdge(&idx.Core, g, a, b, 1, func() error {
		_, err := g.AddEdge(a, b)
		return err
	}, hcl.Directed(g.Out, g.In), nil)
}

// DeleteEdge removes the directed edge a→b and repairs both label sets
// with DecHL (hcl.DeleteEdge). A forward pass is affected only when a→b
// lies on its landmark's forward shortest-path DAG, d(r→a) + 1 = d(r→b),
// and a backward pass only when it lies on the backward one,
// d(b→r) + 1 = d(a→r). Deleting an edge that does not exist is an error
// (graph.ErrEdgeUnknown).
func (idx *Index) DeleteEdge(a, b uint32) (hcl.Stats, error) {
	g := idx.G
	return hcl.DeleteEdge(&idx.Core, g, a, b, 1, func() error { return g.RemoveEdge(a, b) }, hcl.Directed(g.Out, g.In))
}
