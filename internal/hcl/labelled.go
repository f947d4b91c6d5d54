package hcl

import (
	"fmt"
	"io"

	"repro/internal/arena"
	"repro/internal/bfs"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/wgraph"
)

// Substrate is a graph type a labelling can be kept over: an undirected
// graph, a directed one, or an undirected one with positive integral
// weights (Section 5 of the paper carries the labelling, the Lemma 4.6
// classification and the minimality argument over to the last two
// unchanged). What the three differ in — the arcs a pass walks, the
// bounded query search, the full search of the cover audit and the graph
// edit — each supplies through its substrate (substrate.go); the rest is
// the one Labelled.
type Substrate[G any] interface {
	*graph.Graph | *digraph.Digraph | *wgraph.Graph
	graph.EdgeSet
	NumVertices() int
	Fork() G
}

// Labelled is a highway cover labelling Γ = (H, L) bound to its graph G:
// the index of all three variants. It answers exact distance queries and is
// the structure IncHL+ and DecHL maintain under edge insertions and
// deletions (update.go). The directed variant keeps a forward and a
// backward label per vertex and an asymmetric highway; the others one
// label and a symmetric highway (see Core).
//
// Queries are safe for any number of concurrent readers (each in-flight
// query draws its own scratch from a pool); mutations (the edge updates,
// EnsureVertex) require exclusive access.
type Labelled[G Substrate[G]] struct {
	Core
	G G

	// Strategy selects the repair of an insertion (default RepairPartial).
	Strategy RepairStrategy
}

// RepairStrategy selects how the labels of an insertion's affected
// vertices are repaired.
type RepairStrategy int

const (
	// RepairPartial is IncHL+'s repair: a pass over the affected vertices
	// only, using the covered/uncovered distinction of Lemma 4.6.
	RepairPartial RepairStrategy = iota
	// RepairRebuild recomputes the full labelling of every pass the
	// Lemma 4.3 test keeps by re-running its construction search, with no
	// find or classify pass. It is the ablation baseline quantifying what
	// the partial repair saves.
	RepairRebuild
)

// Build constructs the minimal highway cover labelling of g for the given
// landmark set, fanning the per-(landmark, direction) construction passes
// across workers (0 = GOMAXPROCS, 1 = serial). The result is byte-identical
// for every worker count: the passes only buffer deltas against the empty
// labelling and a single-threaded merge applies them in pass order.
//
// Each pass is one covered-flag search from its landmark r — BFS, forward
// or backward BFS, or Dijkstra — computing exact distances together with a
// "covered" flag propagated along shortest-path DAG edges: covered(v) holds
// iff some shortest r–v path contains a landmark other than r. Vertex v ∉ R
// receives the entry (r, d_G(r,v)) iff it is not covered — exactly the
// minimal labelling characterised in the paper (Theorem 5.1/5.2: an entry
// exists iff the shortest paths P_G(r,v) contain no landmark besides r).
// Landmark-to-landmark distances feed the highway.
func Build[G Substrate[G]](g G, landmarks []uint32, workers int) (*Labelled[G], error) {
	s := substrateOf(g)
	c, err := NewCore(s.kind(), g.NumVertices(), landmarks)
	x, err := attach(g, c, err)
	if err != nil {
		return nil, err
	}
	Construct(&x.Core, workers, func(ws *Scratch, d *Delta) { s.construct(&x.Core, ws, d) })
	return x, nil
}

// ReadIndex deserialises a labelling written by WriteTo and attaches it to
// g, which must be the graph the index was built over (vertex count is
// checked; callers needing a stronger guarantee can run VerifyCover). The
// loaded index is already packed: its label blocks are the arenas.
func ReadIndex[G Substrate[G]](r io.Reader, g G) (*Labelled[G], error) {
	c, err := ReadCore(r, substrateOf(g).kind(), g.NumVertices())
	return attach(g, c, err)
}

// AttachIndex attaches the index stream at the start of data to g: data
// lies inside the mapping m, or is heap bytes when m is nil (see
// AttachCore).
func AttachIndex[G Substrate[G]](data []byte, m *arena.Mapping, g G) (*Labelled[G], error) {
	c, err := AttachCore(data, m, substrateOf(g).kind(), g.NumVertices())
	return attach(g, c, err)
}

// attach binds a labelling to its graph.
func attach[G Substrate[G]](g G, c Core, err error) (*Labelled[G], error) {
	if err != nil {
		return nil, fmt.Errorf("hcl: %w", err)
	}
	return &Labelled[G]{Core: c, G: g}, nil
}

// Fork returns a copy-on-write copy of the index bound to g, which must be
// a fork of x.G taken at the same moment (see Core.Fork).
func (x *Labelled[G]) Fork(g G) *Labelled[G] {
	return &Labelled[G]{Core: x.Core.Fork(), G: g, Strategy: x.Strategy}
}

// Query answers an exact distance query Q(u,v,Γ), u→v on a directed
// graph: it computes the highway upper bound d⊤ and then runs the
// substrate's bounded bidirectional search over the landmark-sparsified
// graph G[V\R] for a path shorter than d⊤; the smaller of the two is the
// exact distance (Section 3 of the paper).
func (x *Labelled[G]) Query(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	top := x.UpperBound(u, v)
	// Equation 1 is already exact for a landmark endpoint. Two distinct
	// non-landmarks are each at least 1 from every label landmark, so
	// their d⊤ is at least 2: d⊤ ≤ 1 means a landmark endpoint.
	if top <= 1 || x.IsLandmark(u) || x.IsLandmark(v) {
		return top
	}
	// The landmarks are blocked in the scratch for the search's length, so
	// that it removes them from G without a check per arc.
	s := bfs.Spaces.Get(x.G.NumVertices())
	s.Block(x.Landmarks)
	sp := substrateOf(x.G).search(&x.Core, u, v, top, s) // below top, or Inf
	s.Unblock(x.Landmarks)
	bfs.Spaces.Put(s)
	return min(sp, top)
}

// VerifyCover audits every label direction against the substrate's
// ground-truth searches (Core.VerifyCover).
func (x *Labelled[G]) VerifyCover() error {
	return x.Core.VerifyCover(substrateOf(x.G).distances)
}

// VerifyMinimal checks minimality by rebuilding the labelling from scratch
// and requiring the label sets and highway to be identical: the minimal
// highway cover labelling of a graph for a fixed landmark set is unique (an
// entry (r,v) exists iff no shortest r–v path contains another landmark),
// so equality — not just equal size — must hold.
func (x *Labelled[G]) VerifyMinimal() error {
	fresh, err := Build(x.G, x.Landmarks, 1)
	if err != nil {
		return fmt.Errorf("hcl: rebuilding for minimality check: %w", err)
	}
	return x.EqualLabels(fresh)
}

// EqualLabels reports whether two indexes hold identical labels in every
// direction and highway (see Core.EqualLabels).
func (x *Labelled[G]) EqualLabels(o *Labelled[G]) error { return x.Core.EqualLabels(&o.Core) }

// InsertEdge inserts the edge (a,b), the arc a→b on a directed graph, and
// repairs the labelling so that it is again the minimal highway cover
// labelling of the changed graph (insertEdge, Algorithm 1, IncHL+). w is
// the edge's weight on a weighted graph; an unweighted graph's edges have
// length 1, and w is not read. Inserting an edge that already exists is an
// error, matching the paper's update model ((a,b) ∉ E); both endpoints must
// already be vertices.
//
// On a directed graph each (landmark, direction) pass is one task,
// rank-major, forward before backward per rank: forward distances can only
// change downstream of b, backward distances only upstream of a (the
// directed analogue of Lemma 4.3). In the returned statistics,
// LandmarksSkipped then counts eliminated passes, of 2|R|.
func (x *Labelled[G]) InsertEdge(a, b uint32, w graph.Dist) (Stats, error) {
	s := substrateOf(x.G)
	var rebuild func(*Scratch, *Delta)
	if x.Strategy == RepairRebuild {
		rebuild = func(ws *Scratch, d *Delta) { s.construct(&x.Core, ws, d) }
	}
	return s.insert(&x.Core, a, b, w, rebuild)
}

// DeleteEdge removes the edge (a,b), the arc a→b on a directed graph, and
// repairs the labelling so that it is again the minimal highway cover
// labelling of the changed graph (deleteEdge, DecHL): only the passes on
// whose shortest-path DAG the edge lies are repaired. Deleting an edge that
// does not exist is an error (graph.ErrEdgeUnknown), mirroring InsertEdge's
// update model.
func (x *Labelled[G]) DeleteEdge(a, b uint32) (Stats, error) {
	return substrateOf(x.G).remove(&x.Core, a, b)
}
