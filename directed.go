package dynhl

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/dhcl"
	"repro/internal/digraph"
	"repro/internal/fanout"
	"repro/internal/landmark"
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
	idx *dhcl.Index
}

// BuildDirected constructs the directed labelling of g. Options drives it
// exactly as Build does the undirected one — landmark count, selection
// strategy and seed (degree-based strategies use total in+out degree),
// Parallel/Workers fan the per-pass construction BFS across cores, and
// RepairWorkers sets the repair engine's fan-out. The result is identical
// for every worker count.
func BuildDirected(g *Digraph, opt Options) (*DirectedIndex, error) {
	if opt.Landmarks <= 0 {
		opt.Landmarks = 20
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("dynhl: cannot index an empty graph")
	}
	degree := func(v uint32) int { return g.OutDegree(v) + g.InDegree(v) }
	lms, err := landmark.SelectBy(n, degree, g.NumEdges(), opt.Landmarks, opt.Strategy, opt.Seed)
	if err != nil {
		return nil, err
	}
	return BuildDirectedWithLandmarks(g, lms, opt)
}

// BuildDirectedWithLandmarks constructs the labelling with an explicit
// landmark set (Options strategy fields are ignored).
func BuildDirectedWithLandmarks(g *Digraph, landmarks []uint32, opt Options) (*DirectedIndex, error) {
	var idx *dhcl.Index
	var err error
	if opt.Parallel {
		idx, err = dhcl.BuildParallel(g, landmarks, opt.Workers)
	} else {
		idx, err = dhcl.Build(g, landmarks)
	}
	if err != nil {
		return nil, err
	}
	x := &DirectedIndex{idx: idx}
	x.setRepairWorkers(opt.RepairWorkers)
	return x, nil
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

// NumVertices returns the current vertex count.
func (x *DirectedIndex) NumVertices() int { return x.idx.G.NumVertices() }

// InsertEdge inserts the directed edge u→v and repairs both label sets.
// The graph is unweighted, so w must be 0 or 1.
func (x *DirectedIndex) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	if w > 1 {
		return UpdateSummary{}, fmt.Errorf("dynhl: directed oracle is unweighted, got edge weight %d", w)
	}
	st, err := x.idx.InsertEdge(u, v)
	if err != nil {
		return UpdateSummary{}, err
	}
	return directedSummary(st), nil
}

// InsertVertex adds a vertex with the given initial arcs: Arc.In selects
// the direction (To→new rather than new→To) and weights must be 0 or 1.
func (x *DirectedIndex) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	var outTo, inFrom []uint32
	for _, a := range arcs {
		if a.W > 1 {
			return 0, UpdateSummary{}, fmt.Errorf("dynhl: directed oracle is unweighted, got arc weight %d", a.W)
		}
		if a.In {
			inFrom = append(inFrom, a.To)
		} else {
			outTo = append(outTo, a.To)
		}
	}
	id, st, err := x.idx.InsertVertex(outTo, inFrom)
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	return id, directedSummary(st), nil
}

// Apply applies ops in order, stopping at the first failure (see
// Oracle.Apply); wrap with NewStore for all-or-nothing batches.
func (x *DirectedIndex) Apply(ops []Op) ([]UpdateSummary, error) { return applyOps(x, ops) }

// packLabels freezes both label directions into their packed CSR read
// forms (see hcl.Packed); delta-aware on forks.
func (x *DirectedIndex) packLabels() { x.idx.Pack() }

// fork returns the copy-on-write working copy backing Store publishes.
func (x *DirectedIndex) fork() variant {
	return &DirectedIndex{idx: x.idx.Fork(x.idx.G.Fork())}
}

// setRepairWorkers tunes the per-pass repair fan-out and the delta repack
// (0 = GOMAXPROCS, 1 = serial); see Options.RepairWorkers.
func (x *DirectedIndex) setRepairWorkers(n int) { x.idx.Workers = n }

// repairWorkers returns the configured (unresolved) repair fan-out.
func (x *DirectedIndex) repairWorkers() int { return x.idx.Workers }

// setRepairTimer installs f as the per-pass repair task timer; it is called
// from worker goroutines and must be safe for concurrent use.
func (x *DirectedIndex) setRepairTimer(f func(time.Duration)) { x.idx.RepairTimer = f }

// DeleteEdge removes the directed edge u→v and repairs both label sets
// with DecHL (see Oracle.DeleteEdge).
func (x *DirectedIndex) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	st, err := x.idx.DeleteEdge(u, v)
	if err != nil {
		return UpdateSummary{}, err
	}
	return directedSummary(st), nil
}

// DeleteVertex disconnects vertex v by deleting all of its outgoing and
// incoming edges; the id survives as an isolated vertex. Deleting a
// landmark is an error.
func (x *DirectedIndex) DeleteVertex(v uint32) (UpdateSummary, error) {
	st, err := x.idx.DeleteVertex(v)
	if err != nil {
		return UpdateSummary{}, err
	}
	return directedSummary(st), nil
}

func directedSummary(st dhcl.Stats) UpdateSummary {
	return UpdateSummary{
		Landmarks:      st.LandmarksTotal,
		Skipped:        st.PassesSkipped,
		Affected:       st.AffectedForward + st.AffectedBack,
		EntriesAdded:   st.EntriesAdded,
		EntriesRemoved: st.EntriesRemoved,
		HighwayUpdates: st.HighwayUpdates,
	}
}

// Stats returns current size statistics; LabelEntries counts both the
// forward and the backward label sets.
func (x *DirectedIndex) Stats() Stats {
	entries, bytes := x.idx.Sizes()
	st := Stats{
		Vertices:     x.idx.G.NumVertices(),
		Edges:        x.idx.G.NumEdges(),
		Landmarks:    len(x.idx.Landmarks),
		LabelEntries: entries,
		Bytes:        bytes,
		AvgLabelSize: avgLabelSize(entries, x.idx.G.NumVertices()),
	}
	if pf := x.idx.PackedForward(); pf != nil {
		st.PackedBytes += pf.ArenaBytes()
	}
	if pb := x.idx.PackedBackward(); pb != nil {
		st.PackedBytes += pb.ArenaBytes()
	}
	st.MappedBytes = x.idx.MappedBytes()
	st.RepairWorkers = fanout.Resolve(x.idx.Workers)
	return st
}

// Verify audits both label directions against BFS ground truth.
func (x *DirectedIndex) Verify() error { return x.idx.VerifyCover() }

// Save serialises the directed labelling to w in a compact binary format
// (both label sets stored as contiguous CSR arenas). The graph is not
// included — persist it separately.
func (x *DirectedIndex) Save(w io.Writer) error {
	_, err := x.idx.WriteTo(w)
	return err
}

// Load swaps in a labelling saved with Save, replacing the current one. The
// stream must have been saved over the index's current graph; the loaded
// labelling arrives packed. Use Verify for a full consistency audit after
// loading from untrusted storage.
func (x *DirectedIndex) Load(r io.Reader) error {
	idx, err := dhcl.ReadIndex(r, x.idx.G)
	if err != nil {
		return err
	}
	x.adopt(idx)
	return nil
}

// adopt installs idx as the labelling, carrying over the repair settings.
func (x *DirectedIndex) adopt(idx *dhcl.Index) {
	idx.Workers, idx.RepairTimer = x.idx.Workers, x.idx.RepairTimer
	x.idx = idx
}

// LoadDirectedIndex restores a labelling saved with Save and attaches it to
// g, which must be the graph it was built over.
func LoadDirectedIndex(r io.Reader, g *Digraph) (*DirectedIndex, error) {
	idx, err := dhcl.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return &DirectedIndex{idx: idx}, nil
}

// Landmarks returns the landmark vertices in rank order.
func (x *DirectedIndex) Landmarks() []uint32 {
	return append([]uint32(nil), x.idx.Landmarks...)
}

func avgLabelSize(entries int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(entries) / float64(n)
}
