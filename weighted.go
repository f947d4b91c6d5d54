package dynhl

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/fanout"
	"repro/internal/landmark"
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
	idx *whcl.Index
}

// BuildWeighted constructs the weighted labelling of g. Options drives it
// exactly as Build does the unweighted one — landmark count, selection
// strategy and seed (degree-based strategies count neighbours, not
// weights), Parallel/Workers fan the per-landmark construction Dijkstras
// across cores, and RepairWorkers sets the repair engine's fan-out. The
// result is identical for every worker count.
func BuildWeighted(g *WeightedGraph, opt Options) (*WeightedIndex, error) {
	if opt.Landmarks <= 0 {
		opt.Landmarks = 20
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("dynhl: cannot index an empty graph")
	}
	degree := func(v uint32) int { return len(g.Neighbors(v)) }
	lms, err := landmark.SelectBy(n, degree, g.NumEdges(), opt.Landmarks, opt.Strategy, opt.Seed)
	if err != nil {
		return nil, err
	}
	return BuildWeightedWithLandmarks(g, lms, opt)
}

// BuildWeightedWithLandmarks constructs the labelling with an explicit
// landmark set (Options strategy fields are ignored).
func BuildWeightedWithLandmarks(g *WeightedGraph, landmarks []uint32, opt Options) (*WeightedIndex, error) {
	var idx *whcl.Index
	var err error
	if opt.Parallel {
		idx, err = whcl.BuildParallel(g, landmarks, opt.Workers)
	} else {
		idx, err = whcl.Build(g, landmarks)
	}
	if err != nil {
		return nil, err
	}
	x := &WeightedIndex{idx: idx}
	x.setRepairWorkers(opt.RepairWorkers)
	return x, nil
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

// NumVertices returns the current vertex count.
func (x *WeightedIndex) NumVertices() int { return x.idx.G.NumVertices() }

// InsertEdge inserts the undirected edge (u,v) with weight w (0 means 1)
// and repairs the labelling.
func (x *WeightedIndex) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	if w == 0 {
		w = 1
	}
	st, err := x.idx.InsertEdge(u, v, w)
	if err != nil {
		return UpdateSummary{}, err
	}
	return weightedSummary(st), nil
}

// InsertVertex adds a vertex with initial weighted edges (Arc.W of 0 means
// 1; Arc.In is rejected — the graph is undirected).
func (x *WeightedIndex) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	ws := make([]WeightedArc, len(arcs))
	for i, a := range arcs {
		if a.In {
			return 0, UpdateSummary{}, fmt.Errorf("dynhl: weighted oracle has no incoming arcs")
		}
		w := a.W
		if w == 0 {
			w = 1
		}
		ws[i] = WeightedArc{To: a.To, W: w}
	}
	id, st, err := x.idx.InsertVertex(ws)
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	return id, weightedSummary(st), nil
}

// Apply applies ops in order, stopping at the first failure (see
// Oracle.Apply); wrap with NewStore for all-or-nothing batches.
func (x *WeightedIndex) Apply(ops []Op) ([]UpdateSummary, error) { return applyOps(x, ops) }

// packLabels freezes the labelling into the packed CSR read form the Store
// serves published snapshots from (see hcl.Packed); delta-aware on forks.
func (x *WeightedIndex) packLabels() { x.idx.Pack() }

// fork returns the copy-on-write working copy backing Store publishes.
func (x *WeightedIndex) fork() variant {
	return &WeightedIndex{idx: x.idx.Fork(x.idx.G.Fork())}
}

// setRepairWorkers tunes the per-landmark repair fan-out and the delta
// repack (0 = GOMAXPROCS, 1 = serial); see Options.RepairWorkers.
func (x *WeightedIndex) setRepairWorkers(n int) { x.idx.Workers = n }

// repairWorkers returns the configured (unresolved) repair fan-out.
func (x *WeightedIndex) repairWorkers() int { return x.idx.Workers }

// setRepairTimer installs f as the per-landmark repair task timer; it is
// called from worker goroutines and must be safe for concurrent use.
func (x *WeightedIndex) setRepairTimer(f func(time.Duration)) { x.idx.RepairTimer = f }

// DeleteEdge removes the undirected weighted edge (u,v) and repairs the
// labelling with DecHL (see Oracle.DeleteEdge).
func (x *WeightedIndex) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	st, err := x.idx.DeleteEdge(u, v)
	if err != nil {
		return UpdateSummary{}, err
	}
	return weightedSummary(st), nil
}

// DeleteVertex disconnects vertex v by deleting all of its incident edges;
// the id survives as an isolated vertex. Deleting a landmark is an error.
func (x *WeightedIndex) DeleteVertex(v uint32) (UpdateSummary, error) {
	st, err := x.idx.DeleteVertex(v)
	if err != nil {
		return UpdateSummary{}, err
	}
	return weightedSummary(st), nil
}

func weightedSummary(st whcl.Stats) UpdateSummary {
	return UpdateSummary{
		Landmarks:      st.LandmarksTotal,
		Skipped:        st.LandmarksSkipped,
		Affected:       st.AffectedSum,
		EntriesAdded:   st.EntriesAdded,
		EntriesRemoved: st.EntriesRemoved,
		HighwayUpdates: st.HighwayUpdates,
	}
}

// Stats returns current size statistics.
func (x *WeightedIndex) Stats() Stats {
	entries, bytes := x.idx.Sizes()
	st := Stats{
		Vertices:     x.idx.G.NumVertices(),
		Edges:        x.idx.G.NumEdges(),
		Landmarks:    len(x.idx.Landmarks),
		LabelEntries: entries,
		Bytes:        bytes,
		AvgLabelSize: avgLabelSize(entries, x.idx.G.NumVertices()),
	}
	if p := x.idx.PackedLabels(); p != nil {
		st.PackedBytes = p.ArenaBytes()
	}
	st.MappedBytes = x.idx.MappedBytes()
	st.RepairWorkers = fanout.Resolve(x.idx.Workers)
	return st
}

// Verify audits the labelling against Dijkstra ground truth.
func (x *WeightedIndex) Verify() error { return x.idx.VerifyCover() }

// Save serialises the weighted labelling to w in a compact binary format
// (labels stored as one contiguous CSR arena). The graph is not included —
// persist it separately.
func (x *WeightedIndex) Save(w io.Writer) error {
	_, err := x.idx.WriteTo(w)
	return err
}

// Load swaps in a labelling saved with Save, replacing the current one. The
// stream must have been saved over the index's current graph; the loaded
// labelling arrives packed. Use Verify for a full consistency audit after
// loading from untrusted storage.
func (x *WeightedIndex) Load(r io.Reader) error {
	idx, err := whcl.ReadIndex(r, x.idx.G)
	if err != nil {
		return err
	}
	x.adopt(idx)
	return nil
}

// adopt installs idx as the labelling, carrying over the repair settings.
func (x *WeightedIndex) adopt(idx *whcl.Index) {
	idx.Workers, idx.RepairTimer = x.idx.Workers, x.idx.RepairTimer
	x.idx = idx
}

// LoadWeightedIndex restores a labelling saved with Save and attaches it to
// g, which must be the graph it was built over.
func LoadWeightedIndex(r io.Reader, g *WeightedGraph) (*WeightedIndex, error) {
	idx, err := whcl.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return &WeightedIndex{idx: idx}, nil
}

// Landmarks returns the landmark vertices in rank order.
func (x *WeightedIndex) Landmarks() []uint32 {
	return append([]uint32(nil), x.idx.Landmarks...)
}
