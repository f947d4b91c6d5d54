package dynhl

import (
	"context"
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
// maintained incrementally by the directed IncHL+ variant.
//
// A DirectedIndex implements Oracle. Queries are safe for any number of
// concurrent readers; readers must not race the Insert methods — wrap with
// NewStore for that.
type DirectedIndex struct {
	labelling
	idx *dhcl.Index
}

func newDirected(idx *dhcl.Index) *DirectedIndex {
	return &DirectedIndex{labelling{&idx.Core, idx.G, directedArcs}, idx}
}

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
	return newDirected(idx), nil
}

// Graph returns the underlying directed graph. Treat it as read-only;
// mutate through the DirectedIndex methods.
func (x *DirectedIndex) Graph() *Digraph { return x.idx.G }

// Query returns the exact directed distance u→v, Inf when unreachable.
func (x *DirectedIndex) Query(u, v uint32) Dist { return x.idx.Query(u, v) }

// QueryBatch answers many pairs, fanning large batches across workers.
func (x *DirectedIndex) QueryBatch(pairs []Pair) []Dist {
	out, _ := queryBatchCtx(context.Background(), x, pairs)
	return out
}

// InsertEdge inserts the directed edge u→v and repairs both label sets.
// The graph is unweighted, so w must be 0 or 1.
func (x *DirectedIndex) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	return insertEdge(x, x.rule, u, v, w)
}

// InsertVertex adds a vertex with the given initial arcs: Arc.In selects
// the direction (To→new rather than new→To) and weights must be 0 or 1.
// The out-arcs are inserted before the in-arcs.
func (x *DirectedIndex) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	return oracleInsertVertex(x, arcs)
}

// Apply applies ops in order, stopping at the first failure (see
// Oracle.Apply); wrap with NewStore for all-or-nothing batches.
func (x *DirectedIndex) Apply(ops []Op) ([]UpdateSummary, error) { return applyOps(x, ops) }

// fork returns the copy-on-write working copy backing Store publishes.
func (x *DirectedIndex) fork() variant {
	return newDirected(x.idx.Fork(x.idx.G.Fork()))
}

// DeleteEdge removes the directed edge u→v and repairs both label sets
// with DecHL (see Oracle.DeleteEdge).
func (x *DirectedIndex) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	return summary(x.idx.DeleteEdge(u, v))
}

// DeleteVertex disconnects vertex v by deleting all of its outgoing and
// then all of its incoming edges; the id survives as an isolated vertex.
// Deleting a landmark is an error.
func (x *DirectedIndex) DeleteVertex(v uint32) (UpdateSummary, error) {
	return oracleDeleteVertex(x, v)
}

func (x *DirectedIndex) insertEdge(u, v uint32, _ Dist) (hcl.Stats, error) {
	return x.idx.InsertEdge(u, v)
}

func (x *DirectedIndex) deleteEdge(u, v uint32) (hcl.Stats, error) { return x.idx.DeleteEdge(u, v) }

func (x *DirectedIndex) incident(v uint32) [][2]uint32 {
	return edgesAt(v, x.idx.G.Out(v), x.idx.G.In(v))
}

// checker returns the validity pre-pass over x's graph.
func (x *DirectedIndex) checker() *prepass { return newPrepass(x, x.labelling) }

// Verify audits both label directions against BFS ground truth.
func (x *DirectedIndex) Verify() error { return x.idx.VerifyCover() }

// Load swaps in a labelling saved with Save, replacing the current one. The
// stream must have been saved over the index's current graph; the loaded
// labelling arrives packed. Use Verify for a full consistency audit after
// loading from untrusted storage.
func (x *DirectedIndex) Load(r io.Reader) error { return x.adopt(dhcl.ReadIndex(r, x.idx.G)) }

// LoadMappedFile is the directed variant's mapped label-file load (see
// Index.LoadMappedFile).
func (x *DirectedIndex) LoadMappedFile(path string) error {
	return x.adopt(mapFile(path, func(m *arena.Mapping) (*dhcl.Index, error) {
		return dhcl.ReadIndexMapped(m, 0, x.idx.G)
	}))
}

// adopt installs a loaded labelling, carrying over the repair settings.
func (x *DirectedIndex) adopt(idx *dhcl.Index, err error) error {
	if err != nil {
		return err
	}
	x.inherit(&idx.Core)
	*x = *newDirected(idx)
	return nil
}

// LoadDirectedIndex restores a labelling saved with Save and attaches it to
// g, which must be the graph it was built over.
func LoadDirectedIndex(r io.Reader, g *Digraph) (*DirectedIndex, error) {
	idx, err := dhcl.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return newDirected(idx), nil
}
