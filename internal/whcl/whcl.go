// Package whcl implements the weighted extension of highway cover
// labelling and IncHL+ sketched in Section 5 of Farhan & Wang (EDBT 2021):
// Dijkstra searches replace BFS throughout. The label semantics, the
// covered/uncovered classification of Lemma 4.6 and the minimality argument
// carry over unchanged because edge weights are positive integers: a
// shortest-path parent always has a strictly smaller distance, so
// processing vertices in distance order is well-founded. Construction runs
// hcl's covered-flag Dijkstra per landmark, and the edge updates are hcl's
// one IncHL+ and DecHL driver (hcl.InsertEdge and hcl.DeleteEdge), the
// unit-weight variants' own, over weighted arcs: the edge's length is its
// weight. This package supplies the graph edit and the adjacency. A query
// refines the highway bound with wgraph's bounded bidirectional Dijkstra,
// pruned by the landmark lower bounds the labels give (hcl.ALT). The
// package updates edges only; the root package writes the vertex ops over
// them.
package whcl

import (
	"fmt"
	"io"

	"repro/internal/arena"
	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// codecMagic names the weighted label stream: the shared hcl stream layout
// with the symmetric weighted highway and one label block.
const codecMagic = "WHL2"

var weighted = hcl.Kind{Magic: codecMagic, Dirs: 1}

// Index is a weighted highway cover labelling.
// Queries are safe for any number of concurrent readers (each in-flight
// query draws its own Dijkstra scratch from a pool); mutations require
// exclusive access.
type Index struct {
	hcl.Core
	G *wgraph.Graph
}

// Build constructs the minimal weighted labelling with one covered-flag
// Dijkstra per landmark.
func Build(g *wgraph.Graph, landmarks []uint32) (*Index, error) {
	return BuildParallel(g, landmarks, 1)
}

// BuildParallel constructs the same labelling as Build, fanning the
// per-landmark construction Dijkstras across workers (0 = GOMAXPROCS,
// 1 = serial). The result is byte-identical for every worker count: tasks
// only buffer deltas against the empty labelling and a single-threaded
// merge applies them in rank order.
func BuildParallel(g *wgraph.Graph, landmarks []uint32, workers int) (*Index, error) {
	c, err := hcl.NewCore(weighted, g.NumVertices(), landmarks)
	idx, err := attach(g, c, err)
	if err != nil {
		return nil, err
	}
	hcl.Construct(&idx.Core, workers, func(ws *hcl.Scratch, d *hcl.Delta) {
		idx.RebuildDijkstra(ws, d, g.Neighbors)
	})
	return idx, nil
}

// attach binds a labelling to its graph.
func attach(g *wgraph.Graph, c hcl.Core, err error) (*Index, error) {
	if err != nil {
		return nil, fmt.Errorf("whcl: %w", err)
	}
	return &Index{Core: c, G: g}, nil
}

// ReadIndex deserialises a labelling written by WriteTo and attaches it to
// g, which must be the graph the index was built over (vertex count is
// checked; callers needing a stronger guarantee can run VerifyCover). The
// loaded index is already packed: the label block is the arena.
func ReadIndex(r io.Reader, g *wgraph.Graph) (*Index, error) {
	c, err := hcl.ReadCore(r, weighted, g.NumVertices())
	return attach(g, c, err)
}

// AttachIndex attaches the index stream at the start of data to g: data
// lies inside the mapping m, or is heap bytes when m is nil (see
// hcl.AttachCore).
func AttachIndex(data []byte, m *arena.Mapping, g *wgraph.Graph) (*Index, error) {
	c, err := hcl.AttachCore(data, m, weighted, g.NumVertices())
	return attach(g, c, err)
}

// Fork returns a copy-on-write copy of the index bound to g, which must be
// a fork of idx.G taken at the same moment (see hcl.Core.Fork).
func (idx *Index) Fork(g *wgraph.Graph) *Index {
	return &Index{Core: idx.Core.Fork(), G: g}
}

// Query answers an exact weighted distance query: the highway upper bound
// refined by a bounded bidirectional Dijkstra on the sparsified graph. The
// Dijkstra skips every vertex whose landmark lower bound (hcl.ALT) to the
// opposite endpoint shows that no path through it beats the best found,
// which the labels give without another index.
func (idx *Index) Query(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	top := idx.UpperBound(u, v)
	if idx.IsLandmark(u) || idx.IsLandmark(v) {
		return top
	}
	alt := idx.ALT(u, v)
	s := bfs.Spaces.Get(idx.G.NumVertices())
	sp := idx.G.SparsifiedLB(u, v, top, idx.IsLandmark, alt.Lower, s) // below top, or Inf
	bfs.Spaces.Put(s)
	return min(sp, top)
}

// VerifyCover audits the labelling against Dijkstra ground truth.
func (idx *Index) VerifyCover() error {
	return idx.Core.VerifyCover(func(_ int, src uint32, dist []graph.Dist) { idx.G.Dijkstra(src, dist) })
}

// EqualLabels reports whether two indexes are identical, labels and
// highway (see hcl.Core.EqualLabels).
func (idx *Index) EqualLabels(o *Index) error { return idx.Core.EqualLabels(&o.Core) }
