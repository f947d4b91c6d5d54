package dynhl

import (
	"io"

	"repro/internal/arena"
	"repro/internal/dhcl"
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

// directed is the directed variant's label index, with forward and
// backward labels (internal/dhcl).
type directed struct{ *dhcl.Index }

func newDirected(idx *dhcl.Index) oracle {
	return oracle{&idx.Core, idx.G, directedArcs, directed{idx}}
}

func (x directed) insertEdge(u, v uint32, _ Dist) (hcl.Stats, error) { return x.InsertEdge(u, v) }

func (x directed) incident(v uint32) [][2]uint32 { return edgesAt(v, x.G.Out(v), x.G.In(v)) }

func (x directed) fork() oracle { return newDirected(x.Fork(x.G.Fork())) }

func (x directed) attach(data []byte, m *arena.Mapping) (oracle, error) {
	return loaded(newDirected)(dhcl.AttachIndex(data, m, x.G))
}

func (directed) wrap(o oracle) variant { return &DirectedIndex{o} }

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
	idx, err := dhcl.BuildParallel(g, landmarks, buildWorkers(opt))
	if err != nil {
		return nil, err
	}
	idx.Workers = opt.RepairWorkers
	return &DirectedIndex{newDirected(idx)}, nil
}

// Graph returns the underlying directed graph. Treat it as read-only;
// mutate through the DirectedIndex methods.
func (x *DirectedIndex) Graph() *Digraph { return x.lab.(directed).G }

// LoadDirectedIndex restores a labelling saved with Save and attaches it to
// g, which must be the graph it was built over.
func LoadDirectedIndex(r io.Reader, g *Digraph) (*DirectedIndex, error) {
	idx, err := dhcl.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return &DirectedIndex{newDirected(idx)}, nil
}
