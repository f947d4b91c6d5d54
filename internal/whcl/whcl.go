// Package whcl implements the weighted extension of highway cover
// labelling and IncHL+ sketched in Section 5 of Farhan & Wang (EDBT 2021):
// Dijkstra searches replace BFS throughout. The label semantics, the
// covered/uncovered classification of Lemma 4.6 and the minimality argument
// carry over unchanged because edge weights are positive integers: a
// shortest-path parent always has a strictly smaller distance, so
// processing vertices in distance order is well-founded.
package whcl

import (
	"fmt"
	"io"

	"repro/internal/arena"
	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/queue"
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

// scratch is one worker's repair state: the rebuild scratch plus the
// priority queue shared by the covered-flag Dijkstra (build and DecHL) and
// the jumped Dijkstra of IncHL+.
type scratch struct {
	hcl.Scratch
	pq queue.PQ
}

var scratches hcl.Pool[scratch]

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
	hcl.Construct(&idx.Core, &scratches, workers, idx.rebuildLandmark)
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

// ReadIndexMapped attaches the index stream at offset streamOff of the
// mapping m to g, serving the entry arena straight out of the mapped
// bytes. Returns hcl.ErrNotMappable when this host cannot serve the stream
// in place — callers fall back to ReadIndex.
func ReadIndexMapped(m *arena.Mapping, streamOff int64, g *wgraph.Graph) (*Index, error) {
	c, err := hcl.MapCore(m, streamOff, weighted, g.NumVertices())
	return attach(g, c, err)
}

// Fork returns a copy-on-write copy of the index bound to g, which must be
// a fork of idx.G taken at the same moment (see hcl.Core.Fork).
func (idx *Index) Fork(g *wgraph.Graph) *Index {
	return &Index{Core: idx.Core.Fork(), G: g}
}

// LandmarkDist returns the exact weighted distance from landmark rank r to
// any vertex v (Equation 1 with Dijkstra distances).
func (idx *Index) LandmarkDist(r uint16, v uint32) graph.Dist { return idx.PassDist(0, r, v) }

// UpperBound returns the best u–v distance through the highway network.
func (idx *Index) UpperBound(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	ru, uIsL := idx.Rank(u)
	rv, vIsL := idx.Rank(v)
	switch {
	case uIsL && vIsL:
		return idx.Highway(ru, rv)
	case uIsL:
		return idx.LandmarkDist(ru, v)
	case vIsL:
		return idx.LandmarkDist(rv, u)
	}
	return idx.UpperBoundVia(idx.Label(0, u), idx.Label(0, v))
}

// Query answers an exact weighted distance query: the highway upper bound
// refined by a bounded bidirectional Dijkstra on the sparsified graph.
func (idx *Index) Query(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	top := idx.UpperBound(u, v)
	if idx.IsLandmark(u) || idx.IsLandmark(v) {
		return top
	}
	s := bfs.Spaces.Get(idx.G.NumVertices())
	sp := idx.G.Sparsified(u, v, top, idx.IsLandmark, s) // below top, or Inf
	bfs.Spaces.Put(s)
	return min(sp, top)
}

// VerifyCover checks Equation 1 against ground-truth Dijkstra distances.
func (idx *Index) VerifyCover() error {
	n := idx.G.NumVertices()
	dist := make([]graph.Dist, n)
	for r := range idx.Landmarks {
		idx.G.Dijkstra(idx.Landmarks[r], dist)
		for v := 0; v < n; v++ {
			if got := idx.LandmarkDist(uint16(r), uint32(v)); got != dist[v] {
				return fmt.Errorf("whcl: cover violated: landmark %d to %d: label %d, Dijkstra %d",
					idx.Landmarks[r], v, got, dist[v])
			}
		}
	}
	return nil
}

// EqualLabels reports whether two indexes are identical, labels and
// highway (see hcl.Core.EqualLabels).
func (idx *Index) EqualLabels(o *Index) error { return idx.Core.EqualLabels(&o.Core) }
