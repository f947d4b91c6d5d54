package whcl

import (
	"repro/internal/graph"
	"repro/internal/hcl"
)

// Stats reports what one weighted update did. The variant counts no
// affected union: AffectedSum is its affected-vertex figure.
type Stats = hcl.Stats

// InsertEdge inserts the weighted edge (a,b,w) and repairs the labelling
// (hcl.InsertEdge): per landmark, unless the nearer endpoint's distance
// plus w exceeds the farther one's, the IncHL+ kernel runs a jumped
// Dijkstra from the far endpoint that collects the vertices whose shortest
// path to the landmark now runs through the new edge, then classifies them
// as covered or uncovered in distance order.
func (idx *Index) InsertEdge(a, b uint32, w graph.Dist) (Stats, error) {
	g := idx.G
	return hcl.InsertEdge(&idx.Core, g, a, b, w, func() error {
		_, err := g.AddEdge(a, b, w)
		return err
	}, hcl.Undirected(g.Neighbors), nil)
}

// DeleteEdge removes the undirected weighted edge (a,b) and repairs the
// labelling with DecHL (hcl.DeleteEdge): only the landmarks on whose
// shortest-path DAG the edge lies, d(r,a) + w = d(r,b) or the mirror
// image, are repaired, each in Dijkstra order from the endpoint farther
// from it. Deleting an edge that does not exist is an error
// (graph.ErrEdgeUnknown).
func (idx *Index) DeleteEdge(a, b uint32) (Stats, error) {
	g := idx.G
	return hcl.DeleteEdge(&idx.Core, g, a, b, g.Weight(a, b), func() error {
		_, err := g.RemoveEdge(a, b)
		return err
	}, hcl.Undirected(g.Neighbors))
}
