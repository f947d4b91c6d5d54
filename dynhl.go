package dynhl

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/fanout"
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/inchl"
	"repro/internal/landmark"
)

// Graph is an undirected, unweighted dynamic graph over vertices
// 0..NumVertices-1, the update model of the paper.
type Graph = graph.Graph

// Dist is a shortest-path distance in hops.
type Dist = graph.Dist

// Inf is the distance reported for disconnected vertex pairs.
const Inf = graph.Inf

// NewGraph returns an empty graph with capacity hints for n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// ReadGraph parses a whitespace-separated edge list ("u v" per line, '#'
// and '%' comments allowed).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes g as an edge list readable by ReadGraph.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Landmark selection strategies for Options.Strategy.
const (
	TopDegree      = landmark.TopDegree      // highest-degree vertices (default, the paper's choice)
	RandomSelect   = landmark.Random         // uniform random vertices
	WeightedSelect = landmark.WeightedRandom // degree-weighted random vertices
)

// Options configures Build.
type Options struct {
	// Landmarks is |R|, the number of landmark vertices (default 20, the
	// paper's setting; use more on graphs with billions of vertices, e.g.
	// the paper uses 150 for Clueweb09).
	Landmarks int
	// Strategy selects how landmarks are chosen (default TopDegree).
	Strategy string
	// Seed drives the random strategies.
	Seed int64
	// Parallel enables the multi-goroutine construction; Workers bounds the
	// goroutines (0 = GOMAXPROCS). The result is identical to serial.
	Parallel bool
	Workers  int
	// RepairWorkers bounds the per-landmark fan-out of the repair engine:
	// every InsertEdge/DeleteEdge repair and the delta repack at epoch
	// publish fan their per-landmark (per-pass for the directed variant)
	// tasks across this many cores. 0 (the default) resolves to GOMAXPROCS,
	// 1 forces the serial path. Every worker count produces a byte-identical
	// labelling and identical update summaries — the tasks only buffer
	// deltas against the frozen pre-repair labelling and a single-threaded
	// merge applies them in rank order (see internal/inchl's parallel
	// engine). Tune at runtime with Store.SetRepairWorkers.
	RepairWorkers int
}

// Index is a dynamic distance oracle over a Graph: a highway cover
// labelling maintained incrementally by IncHL+. The Index owns the graph
// passed to Build — all further mutations must go through InsertEdge /
// InsertVertex so that graph and labelling stay consistent.
//
// An Index implements Oracle (and Saver/Loader). Queries are safe for any
// number of concurrent readers; readers must not race the Insert methods —
// wrap with NewStore for that.
type Index struct {
	idx *hcl.Index
	upd *inchl.Updater
}

// Build constructs the minimal highway cover labelling of g.
func Build(g *Graph, opt Options) (*Index, error) {
	if opt.Landmarks <= 0 {
		opt.Landmarks = 20
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("dynhl: cannot index an empty graph")
	}
	lms, err := landmark.Select(g, opt.Landmarks, opt.Strategy, opt.Seed)
	if err != nil {
		return nil, err
	}
	return BuildWithLandmarks(g, lms, opt)
}

// BuildWithLandmarks constructs the labelling with an explicit landmark set
// (Options strategy fields are ignored).
func BuildWithLandmarks(g *Graph, landmarks []uint32, opt Options) (*Index, error) {
	var idx *hcl.Index
	var err error
	if opt.Parallel {
		idx, err = hcl.BuildParallel(g, landmarks, opt.Workers)
	} else {
		idx, err = hcl.Build(g, landmarks)
	}
	if err != nil {
		return nil, err
	}
	x := &Index{idx: idx, upd: inchl.New(idx)}
	x.setRepairWorkers(opt.RepairWorkers)
	return x, nil
}

// Graph returns the underlying graph. Treat it as read-only; mutate through
// the Index methods.
func (x *Index) Graph() *Graph { return x.idx.G }

// Landmarks returns the landmark vertex ids in rank order.
func (x *Index) Landmarks() []uint32 {
	return append([]uint32(nil), x.idx.Landmarks...)
}

// Query returns the exact shortest-path distance between u and v in the
// current graph, or Inf when they are disconnected.
func (x *Index) Query(u, v uint32) Dist { return x.idx.Query(u, v) }

// QueryBatch answers many pairs, fanning large batches across workers.
func (x *Index) QueryBatch(pairs []Pair) []Dist {
	out, _ := queryBatchCtx(context.Background(), x, pairs)
	return out
}

// NumVertices returns the current vertex count.
func (x *Index) NumVertices() int { return x.idx.G.NumVertices() }

// InsertEdge inserts the undirected edge (u,v) into the graph and repairs
// the labelling with IncHL+. The edge must be new and both endpoints must
// exist; the graph is unweighted, so w must be 0 or 1.
func (x *Index) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	if w > 1 {
		return UpdateSummary{}, fmt.Errorf("dynhl: undirected oracle is unweighted, got edge weight %d", w)
	}
	st, err := x.upd.InsertEdge(u, v)
	if err != nil {
		return UpdateSummary{}, err
	}
	return undirectedSummary(st), nil
}

// InsertVertex adds a new vertex joined to the given existing neighbours
// and returns its id. Arcs must be plain (unit weight, outgoing): the graph
// is undirected and unweighted.
func (x *Index) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	neighbors, err := plainNeighbors("undirected", arcs)
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	id, st, err := x.upd.InsertVertex(neighbors)
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	return id, undirectedSummary(st), nil
}

// Apply applies ops in order, stopping at the first failure (see
// Oracle.Apply); wrap with NewStore for all-or-nothing batches.
func (x *Index) Apply(ops []Op) ([]UpdateSummary, error) { return applyOps(x, ops) }

// packLabels freezes the labelling into the packed CSR read form the Store
// serves published snapshots from (see hcl.Packed); delta-aware on forks.
func (x *Index) packLabels() { x.idx.Pack() }

// fork returns the copy-on-write working copy backing Store publishes: the
// graph and label store share everything an update does not touch.
func (x *Index) fork() variant {
	y := *x
	y.adopt(x.idx.Fork(x.idx.G.Fork()))
	return &y
}

// adopt installs idx as the labelling, with a fresh updater carrying over
// the repair settings (strategy, fan-out, task timer).
func (x *Index) adopt(idx *hcl.Index) {
	idx.Workers = x.idx.Workers
	upd := inchl.New(idx)
	upd.Strategy = x.upd.Strategy
	upd.Workers = x.upd.Workers
	upd.RepairTimer = x.upd.RepairTimer
	x.idx, x.upd = idx, upd
}

// setRepairWorkers tunes the per-landmark repair fan-out and the delta
// repack (0 = GOMAXPROCS, 1 = serial); see Options.RepairWorkers.
func (x *Index) setRepairWorkers(n int) {
	x.upd.Workers = n
	x.idx.Workers = n
}

// repairWorkers returns the configured (unresolved) repair fan-out.
func (x *Index) repairWorkers() int { return x.upd.Workers }

// setRepairTimer installs f as the per-landmark repair task timer; it is
// called from worker goroutines and must be safe for concurrent use.
func (x *Index) setRepairTimer(f func(time.Duration)) { x.upd.RepairTimer = f }

// DeleteEdge removes the undirected edge (u,v) from the graph and repairs
// the labelling with DecHL (see Oracle.DeleteEdge). Deleting an edge that
// is not present returns ErrNoSuchEdge.
func (x *Index) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	st, err := x.upd.DeleteEdge(u, v)
	if err != nil {
		return UpdateSummary{}, err
	}
	return undirectedSummary(st), nil
}

// DeleteVertex disconnects vertex v by deleting all of its incident edges;
// the id survives as an isolated vertex. Deleting a landmark is an error.
func (x *Index) DeleteVertex(v uint32) (UpdateSummary, error) {
	st, err := x.upd.DeleteVertex(v)
	if err != nil {
		return UpdateSummary{}, err
	}
	return undirectedSummary(st), nil
}

func undirectedSummary(st inchl.Stats) UpdateSummary {
	return UpdateSummary{
		Landmarks:      st.LandmarksTotal,
		Skipped:        st.LandmarksSkipped,
		Affected:       st.AffectedUnion,
		EntriesAdded:   st.EntriesAdded,
		EntriesRemoved: st.EntriesRemoved,
		HighwayUpdates: st.HighwayUpdates,
	}
}

// plainNeighbors reduces arcs to a neighbour list for the undirected
// variants, rejecting weights and directions they cannot represent.
func plainNeighbors(variant string, arcs []Arc) ([]uint32, error) {
	neighbors := make([]uint32, len(arcs))
	for i, a := range arcs {
		if a.W > 1 {
			return nil, fmt.Errorf("dynhl: %s oracle is unweighted, got arc weight %d", variant, a.W)
		}
		if a.In {
			return nil, fmt.Errorf("dynhl: %s oracle has no incoming arcs", variant)
		}
		neighbors[i] = a.To
	}
	return neighbors, nil
}

// Stats describes the index size. Epoch, Durability and Replication are
// filled by the Store layer (plain variants leave them zero): Epoch names
// the published version the stats describe, Durability carries the attached
// write-ahead log's counters when the store is durable, and Replication the
// role and lag counters when the store leads or follows a replication link.
type Stats struct {
	Vertices     int
	Edges        uint64
	Landmarks    int
	LabelEntries int64   // size(L), total distance entries
	Bytes        int64   // labels + highway storage
	AvgLabelSize float64 // entries per vertex (the paper's l)
	// PackedBytes is the storage charged for the packed CSR read
	// representation published snapshots serve queries from — EntryBytes
	// per arena entry plus the offset index, uniformly across variants
	// (both label directions for the directed one). Zero when the
	// labelling is not currently packed (a plain mutable index).
	PackedBytes int64
	// MappedBytes is the size of the mmap'd region the labelling still
	// serves entries from (zero-copy boot from a checkpoint or label
	// file). Zero for a fully heap-resident labelling; note
	// the region counts once per live mapping, not per snapshot, so
	// consecutive epochs forked from a mapped boot report the same figure
	// until the mapping is released.
	MappedBytes int64
	// RepairWorkers is the resolved per-landmark fan-out of the repair
	// engine for this oracle (Options.RepairWorkers with 0 resolved to
	// GOMAXPROCS); zero only for oracle variants without one.
	RepairWorkers int `json:",omitempty"`
	Epoch         uint64
	Durability    *DurabilityStats  `json:",omitempty"`
	Replication   *ReplicationStats `json:",omitempty"`
}

// Stats returns current size statistics.
func (x *Index) Stats() Stats {
	entries := x.idx.NumEntries()
	st := Stats{
		Vertices:     x.idx.G.NumVertices(),
		Edges:        x.idx.G.NumEdges(),
		Landmarks:    x.idx.NumLandmarks(),
		LabelEntries: entries,
		Bytes:        entries*hcl.EntryBytes + x.idx.H.Bytes(),
		AvgLabelSize: avgLabelSize(entries, x.idx.G.NumVertices()),
	}
	if p := x.idx.PackedLabels(); p != nil {
		st.PackedBytes = p.ArenaBytes()
	}
	st.MappedBytes = x.idx.MappedBytes()
	st.RepairWorkers = fanout.Resolve(x.upd.Workers)
	return st
}

// Verify checks the highway cover property of the current labelling against
// ground-truth BFS distances; it is O(|R|·|E|) and intended for tests and
// debugging.
func (x *Index) Verify() error { return x.idx.VerifyCover() }

// Save serialises the labelling to w in a compact binary format. The graph
// is not included — persist it separately with WriteGraph.
func (x *Index) Save(w io.Writer) error {
	_, err := x.idx.WriteTo(w)
	return err
}

// Load swaps in a labelling saved with Save, replacing the current one. The
// stream must have been saved over the index's current graph. Use Verify
// for a full consistency audit after loading from untrusted storage.
func (x *Index) Load(r io.Reader) error {
	idx, err := hcl.ReadIndex(r, x.idx.G)
	if err != nil {
		return err
	}
	x.adopt(idx)
	return nil
}

// LoadIndex restores a labelling saved with Save and attaches it to g,
// which must be the graph it was built over. Use (*Index).Verify for a full
// consistency audit after loading from untrusted storage.
func LoadIndex(r io.Reader, g *Graph) (*Index, error) {
	idx, err := hcl.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return &Index{idx: idx, upd: inchl.New(idx)}, nil
}
