package dynhl

import (
	"context"
	"io"

	"repro/internal/arena"
	"repro/internal/hcl"
	"repro/internal/wgraph"
	"repro/internal/whcl"
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
// maintained incrementally by the Dijkstra variant of IncHL+.
//
// A WeightedIndex implements Oracle. Queries are safe for any number of
// concurrent readers; readers must not race the Insert methods — wrap with
// NewStore for that.
type WeightedIndex struct {
	labelling
	idx *whcl.Index
}

func newWeighted(idx *whcl.Index) *WeightedIndex {
	return &WeightedIndex{labelling{&idx.Core, idx.G, weightedArcs}, idx}
}

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
	idx, err := whcl.BuildParallel(g, landmarks, buildWorkers(opt))
	if err != nil {
		return nil, err
	}
	idx.Workers = opt.RepairWorkers
	return newWeighted(idx), nil
}

// Graph returns the underlying weighted graph. Treat it as read-only;
// mutate through the WeightedIndex methods.
func (x *WeightedIndex) Graph() *WeightedGraph { return x.idx.G }

// Query returns the exact weighted distance between u and v, Inf when
// disconnected.
func (x *WeightedIndex) Query(u, v uint32) Dist { return x.idx.Query(u, v) }

// QueryBatch answers many pairs, fanning large batches across workers.
func (x *WeightedIndex) QueryBatch(pairs []Pair) []Dist {
	out, _ := queryBatchCtx(context.Background(), x, pairs)
	return out
}

// InsertEdge inserts the undirected edge (u,v) with weight w (0 means 1)
// and repairs the labelling.
func (x *WeightedIndex) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	return insertEdge(x, x.rule, u, v, w)
}

// InsertVertex adds a vertex with initial weighted edges (Arc.W of 0 means
// 1; Arc.In is rejected — the graph is undirected).
func (x *WeightedIndex) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	return oracleInsertVertex(x, arcs)
}

// Apply applies ops in order, stopping at the first failure (see
// Oracle.Apply); wrap with NewStore for all-or-nothing batches.
func (x *WeightedIndex) Apply(ops []Op) ([]UpdateSummary, error) { return applyOps(x, ops) }

// fork returns the copy-on-write working copy backing Store publishes.
func (x *WeightedIndex) fork() variant {
	return newWeighted(x.idx.Fork(x.idx.G.Fork()))
}

// DeleteEdge removes the undirected weighted edge (u,v) and repairs the
// labelling with DecHL (see Oracle.DeleteEdge).
func (x *WeightedIndex) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	return summary(x.idx.DeleteEdge(u, v))
}

// DeleteVertex disconnects vertex v by deleting all of its incident edges;
// the id survives as an isolated vertex. Deleting a landmark is an error.
func (x *WeightedIndex) DeleteVertex(v uint32) (UpdateSummary, error) {
	return oracleDeleteVertex(x, v)
}

func (x *WeightedIndex) insertEdge(u, v uint32, w Dist) (hcl.Stats, error) {
	return x.idx.InsertEdge(u, v, w)
}

func (x *WeightedIndex) deleteEdge(u, v uint32) (hcl.Stats, error) { return x.idx.DeleteEdge(u, v) }

func (x *WeightedIndex) incident(v uint32) [][2]uint32 {
	var es [][2]uint32
	for _, a := range x.idx.G.Neighbors(v) {
		es = append(es, [2]uint32{v, a.To})
	}
	return es
}

// checker returns the validity pre-pass over x's graph.
func (x *WeightedIndex) checker() *prepass { return newPrepass(x, x.labelling) }

// Verify audits the labelling against Dijkstra ground truth.
func (x *WeightedIndex) Verify() error { return x.idx.VerifyCover() }

// Load swaps in a labelling saved with Save, replacing the current one. The
// stream must have been saved over the index's current graph; the loaded
// labelling arrives packed. Use Verify for a full consistency audit after
// loading from untrusted storage.
func (x *WeightedIndex) Load(r io.Reader) error { return x.adopt(whcl.ReadIndex(r, x.idx.G)) }

// LoadMappedFile is the weighted variant's mapped label-file load (see
// Index.LoadMappedFile).
func (x *WeightedIndex) LoadMappedFile(path string) error {
	return x.adopt(mapFile(path, func(m *arena.Mapping) (*whcl.Index, error) {
		return whcl.ReadIndexMapped(m, 0, x.idx.G)
	}))
}

// adopt installs a loaded labelling, carrying over the repair settings.
func (x *WeightedIndex) adopt(idx *whcl.Index, err error) error {
	if err != nil {
		return err
	}
	x.inherit(&idx.Core)
	*x = *newWeighted(idx)
	return nil
}

// LoadWeightedIndex restores a labelling saved with Save and attaches it to
// g, which must be the graph it was built over.
func LoadWeightedIndex(r io.Reader, g *WeightedGraph) (*WeightedIndex, error) {
	idx, err := whcl.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return newWeighted(idx), nil
}
