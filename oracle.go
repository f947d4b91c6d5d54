package dynhl

import (
	"io"

	"repro/internal/graph"
)

// Sentinel errors shared by every variant's mutating operations. They wrap
// through all layers, so callers (and the HTTP service) classify failures
// with errors.Is instead of string matching.
var (
	// ErrNoSuchVertex reports an operation naming a vertex id outside
	// 0..NumVertices-1.
	ErrNoSuchVertex = graph.ErrVertexUnknown
	// ErrNoSuchEdge reports a DeleteEdge on an edge that is not present.
	ErrNoSuchEdge = graph.ErrEdgeUnknown
	// ErrEdgeExists reports an InsertEdge of an edge that is already
	// present, the paper's (a,b) ∉ E update model.
	ErrEdgeExists = graph.ErrEdgeExists
)

// Pair is one (source, target) vertex pair of a batch query.
type Pair struct {
	U uint32 `json:"u"`
	V uint32 `json:"v"`
}

// Arc describes one initial connection of a vertex inserted through
// Oracle.InsertVertex. The zero value of the optional fields means "plain
// neighbour": an outgoing unit-weight edge, which every variant accepts.
type Arc struct {
	// To is the existing endpoint of the new edge.
	To uint32 `json:"to"`
	// W is the edge weight; 0 means 1. Unweighted oracles reject W > 1
	// rather than silently dropping the weight.
	W Dist `json:"w,omitempty"`
	// In asks for the edge To→new instead of new→To. Only directed oracles
	// distinguish the two; undirected ones reject In.
	In bool `json:"in,omitempty"`
}

// Arcs converts a plain neighbour list into outgoing unit-weight arcs, the
// common case of InsertVertex on unweighted graphs.
func Arcs(neighbors ...uint32) []Arc {
	out := make([]Arc, len(neighbors))
	for i, v := range neighbors {
		out[i] = Arc{To: v}
	}
	return out
}

// UpdateSummary is the variant-independent account of what one IncHL+
// insertion did. The per-variant meanings line up: Skipped counts the
// landmark searches eliminated by the equal-distance rule (Lemma 4.3; passes
// for the directed variant, which runs two per landmark), Affected the label
// repairs performed (the paper's |Λ| for the undirected variant, the summed
// per-search counts for the directed and weighted ones).
type UpdateSummary struct {
	Landmarks      int `json:"landmarks"`
	Skipped        int `json:"skipped"`
	Affected       int `json:"affected"`
	EntriesAdded   int `json:"entries_added"`
	EntriesRemoved int `json:"entries_removed"`
	HighwayUpdates int `json:"highway_updates"`
	// NewVertex is the id the graph gained when this summary answers an
	// OpInsertVertex; nil for every other operation.
	NewVertex *uint32 `json:"new_vertex,omitempty"`
}

// Oracle is the unified fully dynamic exact-distance oracle implemented by
// all three index variants — Index (undirected), DirectedIndex and
// WeightedIndex, which share one implementation — and by the Store that
// serves them. Code written against Oracle (the HTTP service, the REPL,
// benchmarks) serves any variant. The method contracts below hold for
// every variant; each variant's type comment gives its own facts.
//
// The update model is fully dynamic: insertions are absorbed by IncHL+
// (the paper's algorithm) and deletions by its decremental counterpart
// DecHL (see DeleteEdge). Queries on the package's implementations are safe
// for any number of concurrent readers, but readers must not race the
// mutating methods (InsertEdge/InsertVertex/DeleteEdge/DeleteVertex); wrap
// the variant with NewStore to get that coordination.
type Oracle interface {
	// Query returns the exact distance from u to v in the current graph
	// (hops, or weighted distance), Inf when unreachable.
	Query(u, v uint32) Dist
	// QueryBatch answers many pairs at once, out[i] answering pairs[i],
	// fanning large batches across workers.
	QueryBatch(pairs []Pair) []Dist
	// InsertEdge inserts the edge (u,v) — directed u→v on directed oracles
	// — with weight w (0 means 1; unweighted oracles reject w > 1) and
	// repairs the labelling with IncHL+. The edge must be new
	// (ErrEdgeExists) and both endpoints must exist (ErrNoSuchVertex).
	InsertEdge(u, v uint32, w Dist) (UpdateSummary, error)
	// InsertVertex adds a new vertex with the given initial arcs and
	// returns its id: the paper's node insertion, a new vertex plus one
	// edge insertion per arc (out-arcs first on directed oracles). A
	// rejected vertex op, an InsertVertex or a DeleteVertex, leaves the
	// oracle unchanged.
	InsertVertex(arcs []Arc) (uint32, UpdateSummary, error)
	// DeleteEdge removes the edge (u,v) — directed u→v on directed oracles
	// — and repairs the labelling with DecHL: the removed edge is tested
	// against each landmark's labelled distances (it lies on a landmark's
	// shortest-path DAG iff the endpoint distances differ by exactly the
	// edge weight), and each affected landmark is repaired locally: only
	// the vertices whose distance grows or whose covered flag can flip are
	// visited, and their labels and highway entries are patched, including
	// resets to Inf when the deletion disconnects vertices. ErrNoSuchEdge
	// when absent.
	DeleteEdge(u, v uint32) (UpdateSummary, error)
	// DeleteVertex disconnects vertex v by deleting all of its incident
	// edges, one DecHL repair per edge (out-edges first on directed
	// oracles). Vertex ids are a contiguous
	// 0..NumVertices-1 universe, so the id itself survives as an isolated
	// vertex; queries against it answer Inf. Deleting a landmark is an
	// error — landmarks anchor the labelling.
	DeleteVertex(v uint32) (UpdateSummary, error)
	// Apply applies a batch of mutations in order. On the plain variants it
	// stops at the first failing op, returning the summaries of the ops
	// that succeeded alongside the error (the earlier ops stay applied);
	// through a Store the batch is all-or-nothing and becomes visible to
	// readers as one new epoch.
	Apply(ops []Op) ([]UpdateSummary, error)
	// NumVertices returns the current vertex count; valid vertex ids are
	// 0..NumVertices-1.
	NumVertices() int
	// Stats returns current index size statistics.
	Stats() Stats
	// Verify audits the labelling against ground-truth searches; it is
	// O(|R|·|E|) and intended for tests and debugging.
	Verify() error
}

// Saver is the capability interface of oracles whose labelling can be
// serialised — all three variants, each writing its labels as contiguous
// CSR arenas so a later Load is a bulk copy (Store forwards it against the
// current snapshot).
type Saver interface {
	Save(w io.Writer) error
}

// Loader is the capability interface of oracles that can swap in a
// labelling previously written by Save, replacing their current one. The
// stream must have been saved over the same graph; the loaded labelling
// arrives packed. Use Verify for a full consistency audit after loading
// from untrusted storage.
type Loader interface {
	Load(r io.Reader) error
}

var (
	_ variant = (*Index)(nil)
	_ variant = (*DirectedIndex)(nil)
	_ variant = (*WeightedIndex)(nil)

	_ Oracle = (*Store)(nil)
	_ Saver  = (*Store)(nil)
	_ Loader = (*Store)(nil)
)
