package dynhl

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/arena"
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
	// every InsertEdge/DeleteEdge repair fans its per-landmark (per-pass
	// for the directed variant) tasks, and then its per-chunk label
	// writes, across this many cores. 0 (the default) resolves to GOMAXPROCS,
	// 1 forces the serial path. Every worker count produces a byte-identical
	// labelling and identical update summaries — the tasks only buffer
	// deltas against the frozen pre-repair labelling and a single-threaded
	// merge applies them in rank order (see the repair engine of
	// internal/hcl). Tune at runtime with Store.SetRepairWorkers.
	RepairWorkers int
}

// labelling is what the three index wrappers share: the hcl core of the
// labelling they serve, their graph and their variant's arc rule. It
// implements every method that touches only those — statistics,
// serialisation, the repair knobs and the writer's vertex addition.
type labelling struct {
	core *hcl.Core
	g    interface {
		graph.EdgeSet
		AddVertex() uint32
		NumVertices() int
		NumEdges() uint64
	}
	rule arcRule
}

// labels returns the labelling, for code that holds its wrapper as a
// variant.
func (l labelling) labels() labelling { return l }

// addVertex adds a vertex with no edges and no label entries.
func (l labelling) addVertex() uint32 {
	v := l.g.AddVertex()
	l.core.EnsureVertex(v)
	return v
}

// NumVertices returns the current vertex count.
func (l labelling) NumVertices() int { return l.g.NumVertices() }

// Landmarks returns the landmark vertex ids in rank order.
func (l labelling) Landmarks() []uint32 {
	return append([]uint32(nil), l.core.Landmarks...)
}

// Stats returns current size statistics; LabelEntries counts every label
// direction (forward and backward on the directed variant).
func (l labelling) Stats() Stats {
	entries, bytes := l.core.Sizes()
	n := l.g.NumVertices()
	st := Stats{
		Vertices:      n,
		Edges:         l.g.NumEdges(),
		Landmarks:     l.core.NumLandmarks(),
		LabelEntries:  entries,
		Bytes:         bytes,
		PackedBytes:   l.core.PackedBytes(),
		MappedBytes:   l.core.MappedBytes(),
		RepairWorkers: fanout.Resolve(l.core.Workers),
	}
	if n > 0 {
		st.AvgLabelSize = float64(entries) / float64(n)
	}
	return st
}

// Save serialises the labelling to w in a compact binary format (every
// label direction stored as one contiguous CSR arena). The graph is not
// included — persist it separately with WriteGraph.
func (l labelling) Save(w io.Writer) error {
	_, err := l.core.WriteTo(w)
	return err
}

// SaveAt is Save for a stream landing at absolute offset base of a larger
// file, such as a checkpoint: entry arenas are page-aligned relative to
// the file, and the returned spans name them within it.
func (l labelling) SaveAt(w io.Writer, base int64) (int64, []Span, error) {
	return l.core.WriteToAt(w, base)
}

// setRepairWorkers tunes the repair fan-out (0 = GOMAXPROCS, 1 =
// serial); see Options.RepairWorkers.
func (l labelling) setRepairWorkers(n int) { l.core.Workers = n }

// repairWorkers returns the configured (unresolved) repair fan-out.
func (l labelling) repairWorkers() int { return l.core.Workers }

// setRepairTimer installs f as the per-task repair timer; it is called
// from worker goroutines and must be safe for concurrent use.
func (l labelling) setRepairTimer(f func(time.Duration)) { l.core.RepairTimer = f }

// inherit carries the repair settings over to a labelling about to replace
// this one.
func (l labelling) inherit(c *hcl.Core) {
	c.Workers, c.RepairTimer = l.core.Workers, l.core.RepairTimer
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
	labelling
	upd *inchl.Updater
}

func newIndex(idx *hcl.Index) *Index {
	return &Index{labelling{&idx.Core, idx.G, undirectedArcs}, inchl.New(idx)}
}

// Build constructs the minimal highway cover labelling of g.
func Build(g *Graph, opt Options) (*Index, error) {
	lms, err := selectLandmarks(g, g.Degree, opt)
	if err != nil {
		return nil, err
	}
	return BuildWithLandmarks(g, lms, opt)
}

// selectLandmarks picks the landmarks Options ask for among g's vertices,
// ranked by degree: Options.Landmarks of them (default 20) by
// Options.Strategy. An empty graph has none to pick.
func selectLandmarks(g interface {
	NumVertices() int
	NumEdges() uint64
}, degree func(uint32) int, opt Options) ([]uint32, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("dynhl: cannot index an empty graph")
	}
	k := opt.Landmarks
	if k <= 0 {
		k = 20
	}
	return landmark.SelectBy(n, degree, g.NumEdges(), k, opt.Strategy, opt.Seed)
}

// BuildWithLandmarks constructs the labelling with an explicit landmark set
// (Options strategy fields are ignored).
func BuildWithLandmarks(g *Graph, landmarks []uint32, opt Options) (*Index, error) {
	idx, err := hcl.BuildParallel(g, landmarks, buildWorkers(opt))
	if err != nil {
		return nil, err
	}
	idx.Workers = opt.RepairWorkers
	return newIndex(idx), nil
}

// buildWorkers is the construction fan-out Options ask for: Workers when
// Parallel is set, serial otherwise.
func buildWorkers(opt Options) int {
	if opt.Parallel {
		return opt.Workers
	}
	return 1
}

// Graph returns the underlying graph. Treat it as read-only; mutate through
// the Index methods.
func (x *Index) Graph() *Graph { return x.upd.G }

// Query returns the exact shortest-path distance between u and v in the
// current graph, or Inf when they are disconnected.
func (x *Index) Query(u, v uint32) Dist { return x.upd.Query(u, v) }

// QueryBatch answers many pairs, fanning large batches across workers.
func (x *Index) QueryBatch(pairs []Pair) []Dist {
	out, _ := queryBatchCtx(context.Background(), x, pairs)
	return out
}

// InsertEdge inserts the undirected edge (u,v) into the graph and repairs
// the labelling with IncHL+. The edge must be new and both endpoints must
// exist; the graph is unweighted, so w must be 0 or 1.
func (x *Index) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	return insertEdge(x, x.rule, u, v, w)
}

// InsertVertex adds a new vertex joined to the given existing neighbours
// and returns its id. Arcs must be plain (unit weight, outgoing): the graph
// is undirected and unweighted.
func (x *Index) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	return oracleInsertVertex(x, arcs)
}

// Apply applies ops in order, stopping at the first failure (see
// Oracle.Apply); wrap with NewStore for all-or-nothing batches.
func (x *Index) Apply(ops []Op) ([]UpdateSummary, error) { return applyOps(x, ops) }

// fork returns the copy-on-write working copy backing Store publishes: the
// graph and label store share everything an update does not touch.
func (x *Index) fork() variant {
	return newIndex(x.upd.Fork(x.upd.G.Fork()))
}

// DeleteEdge removes the undirected edge (u,v) from the graph and repairs
// the labelling with DecHL (see Oracle.DeleteEdge). Deleting an edge that
// is not present returns ErrNoSuchEdge.
func (x *Index) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	return summary(x.upd.DeleteEdge(u, v))
}

// DeleteVertex disconnects vertex v by deleting all of its incident edges;
// the id survives as an isolated vertex. Deleting a landmark is an error.
func (x *Index) DeleteVertex(v uint32) (UpdateSummary, error) { return oracleDeleteVertex(x, v) }

func (x *Index) insertEdge(u, v uint32, _ Dist) (hcl.Stats, error) { return x.upd.InsertEdge(u, v) }

func (x *Index) deleteEdge(u, v uint32) (hcl.Stats, error) { return x.upd.DeleteEdge(u, v) }

func (x *Index) incident(v uint32) [][2]uint32 { return edgesAt(v, x.upd.G.Neighbors(v), nil) }

// checker returns the validity pre-pass over x's graph.
func (x *Index) checker() *prepass { return newPrepass(x, x.labelling) }

// summary converts any variant's update statistics to the summary every
// oracle reports.
func summary(st hcl.Stats, err error) (UpdateSummary, error) {
	if err != nil {
		return UpdateSummary{}, err
	}
	return UpdateSummary{
		Landmarks:      st.LandmarksTotal,
		Skipped:        st.LandmarksSkipped,
		Affected:       st.Affected(),
		EntriesAdded:   st.EntriesAdded,
		EntriesRemoved: st.EntriesRemoved,
		HighwayUpdates: st.HighwayUpdates,
	}, nil
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
	// PackedBytes is the memory the label tables hold (hcl.Packed):
	// eight bytes per entry slot, overflow slots superseded by later
	// writes included, plus an eight-byte span per vertex, uniformly
	// across variants (both label directions for the directed one).
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

// Verify checks the highway cover property of the current labelling against
// ground-truth BFS distances; it is O(|R|·|E|) and intended for tests and
// debugging.
func (x *Index) Verify() error { return x.upd.VerifyCover() }

// Load swaps in a labelling saved with Save, replacing the current one. The
// stream must have been saved over the index's current graph. Use Verify
// for a full consistency audit after loading from untrusted storage.
func (x *Index) Load(r io.Reader) error { return x.adopt(hcl.ReadIndex(r, x.upd.G)) }

// LoadMappedFile swaps in the labelling saved at path, like Load but
// serving entries straight out of an mmap of the file. The file must have
// been saved over the index's current graph. ErrNotMappable when this host
// cannot serve it in place — fall back to Load.
func (x *Index) LoadMappedFile(path string) error {
	return x.adopt(mapFile(path, func(m *arena.Mapping) (*hcl.Index, error) {
		return hcl.ReadIndexMapped(m, 0, x.upd.G)
	}))
}

// adopt installs a loaded labelling, carrying over the repair settings.
func (x *Index) adopt(idx *hcl.Index, err error) error {
	if err != nil {
		return err
	}
	x.inherit(&idx.Core)
	*x = *newIndex(idx)
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
	return newIndex(idx), nil
}
