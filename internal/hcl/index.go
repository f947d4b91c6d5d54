package hcl

import (
	"fmt"

	"repro/internal/graph"
)

// Index is a highway cover labelling Γ = (H, L) over an undirected graph G:
// the shared labelling core with one label direction and a symmetric
// highway. It answers exact distance queries and is the structure IncHL+
// maintains under insertions.
//
// Queries are safe for any number of concurrent readers (each in-flight
// query draws its own scratch from a pool); mutations (IncHL+ repairs,
// EnsureVertex) require exclusive access.
type Index struct {
	Core
	G *graph.Graph
}

// undirected is the labelling shape of Index.
var undirected = Kind{Magic: codecMagic, Dirs: 1}

// Build constructs the minimal highway cover labelling of g for the given
// landmark set.
//
// For each landmark r it runs one breadth-first search computing exact
// distances together with a "covered" flag propagated along shortest-path
// DAG edges: covered(v) holds iff some shortest r–v path contains a landmark
// other than r. Vertex v ∉ R receives the entry (r, d_G(r,v)) iff it is not
// covered — exactly the minimal labelling characterised in the paper
// (Theorem 5.1/5.2: an entry exists iff the shortest paths P_G(r,v) contain
// no landmark besides r). Landmark-to-landmark distances feed the highway.
func Build(g *graph.Graph, landmarks []uint32) (*Index, error) {
	return BuildParallel(g, landmarks, 1)
}

// BuildParallel is Build with the per-landmark searches fanned out over
// workers goroutines (0 means GOMAXPROCS). The resulting index is identical
// to the serial one: per-landmark deltas are merged in rank order.
func BuildParallel(g *graph.Graph, landmarks []uint32, workers int) (*Index, error) {
	c, err := NewCore(undirected, g.NumVertices(), landmarks)
	idx, err := attach(g, c, err)
	if err != nil {
		return nil, err
	}
	Construct(&idx.Core, workers, func(ws *Scratch, d *Delta) {
		idx.RebuildBFS(ws, d, g.Neighbors, g.Neighbors)
	})
	return idx, nil
}

// attach binds a labelling to its graph.
func attach(g *graph.Graph, c Core, err error) (*Index, error) {
	if err != nil {
		return nil, fmt.Errorf("hcl: %w", err)
	}
	return &Index{Core: c, G: g}, nil
}

// Fork returns a copy-on-write copy of the index bound to g, which must be
// a fork of idx.G taken at the same moment (see Core.Fork).
func (idx *Index) Fork(g *graph.Graph) *Index {
	return &Index{Core: idx.Core.Fork(), G: g}
}

// EntryDist returns the label entry distance of landmark rank r at vertex v.
func (idx *Index) EntryDist(v uint32, r uint16) (graph.Dist, bool) { return idx.Entry(0, v, r) }

// EqualLabels reports whether two indexes hold identical labels and
// highway (see Core.EqualLabels).
func (idx *Index) EqualLabels(o *Index) error { return idx.Core.EqualLabels(&o.Core) }
