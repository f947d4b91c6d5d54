package dynhl

import (
	"io"

	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// WeightedGraph is an undirected graph with positive integral edge weights
// (Section 5 of the paper: Dijkstra replaces BFS throughout).
type WeightedGraph = wgraph.Graph

// WeightedArc is one weighted adjacency entry (neighbour, weight ≥ 1).
type WeightedArc = wgraph.Arc

// NewWeightedGraph returns an empty weighted graph with capacity hints for
// n vertices.
func NewWeightedGraph(n int) *WeightedGraph { return wgraph.New(n) }

// ReadWeightedGraph parses a whitespace-separated weighted edge list
// ("u v w" per line with w ≥ 1, '#' and '%' comments allowed).
func ReadWeightedGraph(r io.Reader) (*WeightedGraph, error) { return wgraph.ReadEdgeList(r) }

// WeightedIndex is a dynamic exact distance oracle over a weighted graph,
// maintained incrementally by the Dijkstra variant of IncHL+. An edge's
// weight of 0 means 1, in InsertEdge and in a new vertex's Arc.W alike;
// the graph is undirected, so Arc.In is rejected.
//
// A WeightedIndex implements Oracle. Queries are safe for any number of
// concurrent readers; readers must not race the Insert methods — wrap with
// NewStore for that.
type WeightedIndex struct{ oracle }

// BuildWeighted constructs the weighted labelling of g. Options drives it
// exactly as Build does the unweighted one — landmark count, selection
// strategy and seed (degree-based strategies count neighbours, not
// weights), Parallel/Workers fan the per-landmark construction Dijkstras
// across cores, and RepairWorkers sets the repair engine's fan-out. The
// result is identical for every worker count.
func BuildWeighted(g *WeightedGraph, opt Options) (*WeightedIndex, error) {
	lms, err := selectLandmarks(g, func(v uint32) int { return len(g.Neighbors(v)) }, opt)
	if err != nil {
		return nil, err
	}
	return BuildWeightedWithLandmarks(g, lms, opt)
}

// BuildWeightedWithLandmarks constructs the labelling with an explicit
// landmark set (Options strategy fields are ignored).
func BuildWeightedWithLandmarks(g *WeightedGraph, landmarks []uint32, opt Options) (*WeightedIndex, error) {
	idx, err := hcl.Build(g, landmarks, buildWorkers(opt))
	if err != nil {
		return nil, err
	}
	idx.Workers = opt.RepairWorkers
	return &WeightedIndex{weightedLabels.oracle(idx)}, nil
}

// Graph returns the underlying weighted graph. Treat it as read-only;
// mutate through the WeightedIndex methods.
func (x *WeightedIndex) Graph() *WeightedGraph { return x.lab.(labelled[*WeightedGraph]).G }

// LoadWeightedIndex restores a labelling saved with Save and attaches it to
// g, which must be the graph it was built over.
func LoadWeightedIndex(r io.Reader, g *WeightedGraph) (*WeightedIndex, error) {
	idx, err := hcl.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return &WeightedIndex{weightedLabels.oracle(idx)}, nil
}
