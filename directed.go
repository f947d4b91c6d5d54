package dynhl

import (
	"io"

	"repro/internal/digraph"
	"repro/internal/hcl"
)

// Digraph is a directed, unweighted dynamic graph (Section 5 of the paper:
// the directed extension keeps forward and backward labels per vertex).
type Digraph = digraph.Digraph

// NewDigraph returns an empty directed graph with capacity hints for n
// vertices.
func NewDigraph(n int) *Digraph { return digraph.New(n) }

// ReadDigraph parses a whitespace-separated arc list ("u v" per line, one
// directed edge u→v, '#' and '%' comments allowed).
func ReadDigraph(r io.Reader) (*Digraph, error) { return digraph.ReadEdgeList(r) }

// DirectedIndex is a dynamic exact distance oracle over a directed graph,
// maintained incrementally by the directed IncHL+ variant. An edge is the
// arc u→v, and its weight must be 0 or 1. A new vertex's arcs choose their
// direction with Arc.In (To→new rather than new→To); its out-arcs are
// inserted before its in-arcs, and DeleteVertex deletes the out-arcs
// before the in-arcs.
//
// A DirectedIndex implements Oracle. Queries are safe for any number of
// concurrent readers; readers must not race the Insert methods — wrap with
// NewStore for that.
type DirectedIndex struct{ oracle }

// BuildDirected constructs the directed labelling of g. Options drives it
// exactly as Build does the undirected one — landmark count, selection
// strategy and seed (degree-based strategies use total in+out degree),
// Parallel/Workers fan the per-pass construction BFS across cores, and
// RepairWorkers sets the repair engine's fan-out. The result is identical
// for every worker count.
func BuildDirected(g *Digraph, opt Options) (*DirectedIndex, error) {
	lms, err := selectLandmarks(g, func(v uint32) int { return g.OutDegree(v) + g.InDegree(v) }, opt)
	if err != nil {
		return nil, err
	}
	return BuildDirectedWithLandmarks(g, lms, opt)
}

// BuildDirectedWithLandmarks constructs the labelling with an explicit
// landmark set (Options strategy fields are ignored).
func BuildDirectedWithLandmarks(g *Digraph, landmarks []uint32, opt Options) (*DirectedIndex, error) {
	idx, err := hcl.Build(g, landmarks, buildWorkers(opt))
	if err != nil {
		return nil, err
	}
	idx.Workers = opt.RepairWorkers
	return &DirectedIndex{directedLabels.oracle(idx)}, nil
}

// Graph returns the underlying directed graph. Treat it as read-only;
// mutate through the DirectedIndex methods.
func (x *DirectedIndex) Graph() *Digraph { return x.lab.(labelled[*Digraph]).G }

// LoadDirectedIndex restores a labelling saved with Save and attaches it to
// g, which must be the graph it was built over.
func LoadDirectedIndex(r io.Reader, g *Digraph) (*DirectedIndex, error) {
	idx, err := hcl.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return &DirectedIndex{directedLabels.oracle(idx)}, nil
}
