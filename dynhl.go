package dynhl

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/arena"
	"repro/internal/fanout"
	"repro/internal/graph"
	"repro/internal/hcl"
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

// oracle is the one implementation of Index, DirectedIndex and
// WeightedIndex: each embeds it and adds only its Graph accessor and
// constructors. It serves the hcl core of a labelling over the graph g,
// reads the weight and direction of each op's edges under the variant's
// arc rule, and reaches the labelled index through its one adapter, lab.
// Besides Oracle, Saver, Loader and SaveAt it is the edge-level writer the
// ops are written over (write.go); its repair settings are the core's
// Workers and RepairTimer, which forks and loads carry over.
type oracle struct {
	core *hcl.Core
	g    interface {
		graph.EdgeSet
		AddVertex() uint32
		NumVertices() int
		NumEdges() uint64
	}
	rule arcRule
	lab  labels
}

// labels is what the oracle reaches through its adapter, labelled[G] for
// the variant's graph type G: hcl's query, cover audit and edge updates,
// and the adapter's edges at a vertex, fork and load.
type labels interface {
	Query(u, v uint32) Dist
	VerifyCover() error
	InsertEdge(u, v uint32, w Dist) (hcl.Stats, error)
	DeleteEdge(u, v uint32) (hcl.Stats, error)
	// incident lists the edges at v, out-arcs before in-arcs.
	incident(v uint32) [][2]uint32
	// fork returns a copy-on-write copy of the labelling and its graph,
	// wrapped in the variant's exported type.
	fork() variant
	// attach loads a labelling saved over the same graph from data,
	// which lies inside m or is heap bytes when m is nil
	// (hcl.AttachCore).
	attach(data []byte, m *arena.Mapping) (oracle, error)
}

// labelled is the oracle's one label adapter: hcl's labelled index over a
// graph of type G, with the variant's arc rule and exported type. It adds
// what keeps the graph type: the edges at a vertex, the fork and the load.
type labelled[G graphOf[G]] struct {
	*hcl.Labelled[G]
	rule arcRule
	wrap func(oracle) variant
}

// graphOf is a variant's graph: a substrate of hcl that can also grow and
// count its edges.
type graphOf[G any] interface {
	hcl.Substrate[G]
	AddVertex() uint32
	NumEdges() uint64
}

// The adapters of the three variants, before they hold an index.
var (
	undirectedLabels = labelled[*Graph]{rule: undirectedArcs, wrap: func(o oracle) variant { return &Index{o} }}
	directedLabels   = labelled[*Digraph]{rule: directedArcs, wrap: func(o oracle) variant { return &DirectedIndex{o} }}
	weightedLabels   = labelled[*WeightedGraph]{rule: weightedArcs, wrap: func(o oracle) variant { return &WeightedIndex{o} }}
)

// oracle returns the oracle of idx, a labelling of x's variant.
func (x labelled[G]) oracle(idx *hcl.Labelled[G]) oracle {
	x.Labelled = idx
	return oracle{&idx.Core, idx.G, x.rule, x}
}

func (x labelled[G]) incident(v uint32) [][2]uint32 {
	switch g := any(x.G).(type) {
	case *Digraph:
		return edgesAt(v, g.Out(v), g.In(v))
	case *WeightedGraph:
		es := make([][2]uint32, 0, len(g.Neighbors(v)))
		for _, a := range g.Neighbors(v) {
			es = append(es, [2]uint32{v, a.To})
		}
		return es
	}
	return edgesAt(v, any(x.G).(*Graph).Neighbors(v), nil)
}

func (x labelled[G]) fork() variant { return x.wrap(x.oracle(x.Fork(x.G.Fork()))) }

func (x labelled[G]) attach(data []byte, m *arena.Mapping) (oracle, error) {
	idx, err := hcl.AttachIndex(data, m, x.G)
	if err != nil {
		return oracle{}, err
	}
	return x.oracle(idx), nil
}

// base returns the oracle a variant embeds (see variant).
func (o *oracle) base() *oracle { return o }

// NumVertices returns the current vertex count.
func (o oracle) NumVertices() int { return o.g.NumVertices() }

// Landmarks returns the landmark vertex ids in rank order.
func (o oracle) Landmarks() []uint32 {
	return append([]uint32(nil), o.core.Landmarks...)
}

// Stats returns current size statistics; LabelEntries counts every label
// direction (forward and backward on the directed variant).
func (o oracle) Stats() Stats {
	entries, bytes := o.core.Sizes()
	n := o.g.NumVertices()
	st := Stats{
		Vertices:      n,
		Edges:         o.g.NumEdges(),
		Landmarks:     o.core.NumLandmarks(),
		LabelEntries:  entries,
		Bytes:         bytes,
		PackedBytes:   o.core.PackedBytes(),
		MappedBytes:   o.core.MappedBytes(),
		RepairWorkers: fanout.Resolve(o.core.Workers),
	}
	if n > 0 {
		st.AvgLabelSize = float64(entries) / float64(n)
	}
	return st
}

// Save serialises the labelling to w in a compact binary format (every
// label direction stored as one contiguous CSR arena). The graph is not
// included — persist it separately with WriteGraph.
func (o oracle) Save(w io.Writer) error {
	_, err := o.core.WriteTo(w)
	return err
}

// SaveAt is Save for a stream landing at absolute offset base of a larger
// file, such as a checkpoint: entry arenas are page-aligned relative to
// the file, and the returned spans name them within it.
func (o oracle) SaveAt(w io.Writer, base int64) (int64, []Span, error) {
	return o.core.WriteToAt(w, base)
}

// Query is Oracle.Query: the variant's query search.
func (o *oracle) Query(u, v uint32) Dist { return o.lab.Query(u, v) }

// QueryBatch is Oracle.QueryBatch.
func (o *oracle) QueryBatch(pairs []Pair) []Dist {
	out, _ := queryBatchCtx(context.Background(), o, pairs)
	return out
}

// InsertEdge is Oracle.InsertEdge, the weight read by the arc rule.
func (o *oracle) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	return insertEdge(o, o.rule, u, v, w)
}

// DeleteEdge is Oracle.DeleteEdge.
func (o *oracle) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	return summary(o.deleteEdge(u, v))
}

// InsertVertex and DeleteVertex are Oracle's vertex ops. Each runs
// through the pre-pass on a fresh overlay first, so a rejected op leaves
// the oracle unchanged, and then as a validated op, which cannot fail.
func (o *oracle) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	if _, _, err := o.checker().InsertVertex(arcs); err != nil {
		return 0, UpdateSummary{}, err
	}
	return validated{o}.InsertVertex(arcs)
}

func (o *oracle) DeleteVertex(v uint32) (UpdateSummary, error) {
	if _, err := o.checker().DeleteVertex(v); err != nil {
		return UpdateSummary{}, err
	}
	return validated{o}.DeleteVertex(v)
}

// Apply is Oracle.Apply: it stops at the first failure.
func (o *oracle) Apply(ops []Op) ([]UpdateSummary, error) { return applyOps(o, ops) }

// Verify is Oracle.Verify: the variant's cover audit.
func (o *oracle) Verify() error { return o.lab.VerifyCover() }

// Load is Loader.Load: it reads r to the end and attaches the bytes.
func (o *oracle) Load(r io.Reader) error {
	data, err := hcl.ReadAll(r)
	if err != nil {
		return fmt.Errorf("reading labelling: %w", err)
	}
	return o.adopt(o.lab.attach(data, nil))
}

// LoadFile swaps in the labelling saved at path over the oracle's current
// graph. Where this host can map the file, the entries are served straight
// out of the mapping (the file may then be unlinked); where it cannot,
// the file's bytes are read onto the heap and attached the same way, with
// every label checked. The oracle answers and saves the same either way,
// and a damaged file is rejected once, not decoded a second time.
func (o *oracle) LoadFile(path string) error {
	m, err := arena.MapFile(path)
	var data []byte
	if err == nil {
		data = m.Data()
	} else if data, err = os.ReadFile(path); err != nil {
		return err
	}
	n, err := o.lab.attach(data, m)
	if err != nil && m != nil {
		m.Close()
	}
	return o.adopt(n, err)
}

// adopt installs a loaded labelling, carrying over the repair settings.
func (o *oracle) adopt(n oracle, err error) error {
	if err != nil {
		return err
	}
	n.core.Workers, n.core.RepairTimer = o.core.Workers, o.core.RepairTimer
	*o = n
	return nil
}

// fork returns the copy-on-write working copy backing Store publishes:
// the graph and label store share everything an update does not touch.
func (o *oracle) fork() variant { return o.lab.fork() }

// checker returns the validity pre-pass over the oracle's graph.
func (o *oracle) checker() *prepass { return newPrepass(o) }

// addVertex adds a vertex with no edges and no label entries.
func (o *oracle) addVertex() uint32 {
	v := o.g.AddVertex()
	o.core.EnsureVertex(v)
	return v
}

func (o *oracle) insertEdge(u, v uint32, w Dist) (hcl.Stats, error) {
	return o.lab.InsertEdge(u, v, w)
}

func (o *oracle) deleteEdge(u, v uint32) (hcl.Stats, error) { return o.lab.DeleteEdge(u, v) }

func (o *oracle) incident(v uint32) [][2]uint32 { return o.lab.incident(v) }

// Index is a dynamic distance oracle over a Graph: a highway cover
// labelling maintained incrementally by IncHL+. The Index owns the graph
// passed to Build — all further mutations must go through InsertEdge /
// InsertVertex so that graph and labelling stay consistent. The graph is
// undirected and unweighted: an edge's weight must be 0 or 1, and a new
// vertex's arcs plain (unit weight, outgoing).
//
// An Index implements Oracle (and Saver/Loader). Queries are safe for any
// number of concurrent readers; readers must not race the Insert methods —
// wrap with NewStore for that.
type Index struct{ oracle }

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
	idx, err := hcl.Build(g, landmarks, buildWorkers(opt))
	if err != nil {
		return nil, err
	}
	idx.Workers = opt.RepairWorkers
	return &Index{undirectedLabels.oracle(idx)}, nil
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
func (x *Index) Graph() *Graph { return x.lab.(labelled[*Graph]).G }

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

// LoadIndex restores a labelling saved with Save and attaches it to g,
// which must be the graph it was built over. Use (*Index).Verify for a full
// consistency audit after loading from untrusted storage.
func LoadIndex(r io.Reader, g *Graph) (*Index, error) {
	idx, err := hcl.ReadIndex(r, g)
	if err != nil {
		return nil, err
	}
	return &Index{undirectedLabels.oracle(idx)}, nil
}
