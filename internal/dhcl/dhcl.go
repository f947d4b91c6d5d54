// Package dhcl implements the directed extension of highway cover
// labelling and IncHL+ sketched in Section 5 of Farhan & Wang (EDBT 2021):
// every vertex stores a forward label (distances from landmarks, over
// out-edges) and a backward label (distances to landmarks, over in-edges),
// the highway holds the directed landmark-to-landmark distance matrix, and
// an update runs two passes per landmark — one forward from the edge head,
// one backward from the edge tail. The updates are hcl's one IncHL+ and
// DecHL driver (hcl.InsertEdge and hcl.DeleteEdge), which orients the arc
// per pass; this package supplies the graph edit and each direction's
// adjacency. The package updates edges only; the root package writes the
// vertex ops over them, out-arcs before in-arcs.
package dhcl

import (
	"fmt"
	"io"

	"repro/internal/arena"
	"repro/internal/bfs"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/hcl"
)

// The two label directions of the core: forward labels hold (r, d(r→v)),
// backward labels (r, d(v→r)). A pass (landmark, direction) is one repair
// task; a forward pass of r writes highway cells (r,s), a backward one
// cells (s,r).
const (
	fwd = 0
	bwd = 1
)

// codecMagic names the directed label stream: the shared hcl stream
// layout with the directed highway (cell (i,j) = d(ri→rj)) and two label
// blocks, forward then backward.
const codecMagic = "DHL2"

var directed = hcl.Kind{Magic: codecMagic, Dirs: 2}

// Index is a directed highway cover labelling Γ = (H_f, L_f, L_b).
// Queries are safe for any number of concurrent readers; mutations require
// exclusive access.
type Index struct {
	hcl.Core
	G *digraph.Digraph
}

// Build constructs the minimal directed labelling: per landmark one forward
// and one backward covered-flag BFS.
func Build(g *digraph.Digraph, landmarks []uint32) (*Index, error) {
	return BuildParallel(g, landmarks, 1)
}

// BuildParallel constructs the same labelling as Build, fanning the
// per-(landmark, direction) construction passes across workers
// (0 = GOMAXPROCS, 1 = serial). The result is byte-identical for every
// worker count: passes only buffer deltas against the empty labelling and a
// single-threaded merge applies them in pass order.
func BuildParallel(g *digraph.Digraph, landmarks []uint32, workers int) (*Index, error) {
	c, err := hcl.NewCore(directed, g.NumVertices(), landmarks)
	idx, err := attach(g, c, err)
	if err != nil {
		return nil, err
	}
	hcl.Construct(&idx.Core, workers, idx.rebuildPass)
	return idx, nil
}

// attach binds a labelling to its graph.
func attach(g *digraph.Digraph, c hcl.Core, err error) (*Index, error) {
	if err != nil {
		return nil, fmt.Errorf("dhcl: %w", err)
	}
	return &Index{Core: c, G: g}, nil
}

// rebuildPass runs the covered-flag BFS of one (landmark, direction) pass —
// forward over out-edges, backward over in-edges, with the reverse arcs as
// parents — over the current graph and buffers the replacement of that
// direction's rank-r entries and highway cells into d.
func (idx *Index) rebuildPass(ws *hcl.Scratch, d *hcl.Delta) {
	if d.Dir == fwd {
		idx.RebuildBFS(ws, d, idx.G.Out, idx.G.In)
	} else {
		idx.RebuildBFS(ws, d, idx.G.In, idx.G.Out)
	}
}

// ReadIndex deserialises a labelling written by WriteTo and attaches it to
// g, which must be the graph the index was built over (vertex count is
// checked; callers needing a stronger guarantee can run VerifyCover). The
// loaded index is already packed in both directions: the label blocks are
// the arenas.
func ReadIndex(r io.Reader, g *digraph.Digraph) (*Index, error) {
	c, err := hcl.ReadCore(r, directed, g.NumVertices())
	return attach(g, c, err)
}

// AttachIndex attaches the index stream at the start of data to g: data
// lies inside the mapping m, or is heap bytes when m is nil (see
// hcl.AttachCore).
func AttachIndex(data []byte, m *arena.Mapping, g *digraph.Digraph) (*Index, error) {
	c, err := hcl.AttachCore(data, m, directed, g.NumVertices())
	return attach(g, c, err)
}

// Fork returns a copy-on-write copy of the index bound to g, which must be
// a fork of idx.G taken at the same moment (see hcl.Core.Fork).
func (idx *Index) Fork(g *digraph.Digraph) *Index {
	return &Index{Core: idx.Core.Fork(), G: g}
}

// Query answers an exact directed distance query u→v: the highway upper
// bound refined by a bounded bidirectional search on the sparsified graph.
func (idx *Index) Query(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	top := idx.UpperBound(u, v)
	if idx.IsLandmark(u) || idx.IsLandmark(v) || top <= 1 {
		return top
	}
	s := bfs.Spaces.Get(idx.G.NumVertices())
	sp := idx.G.Sparsified(u, v, top, idx.IsLandmark, s) // below top, or Inf
	bfs.Spaces.Put(s)
	return min(sp, top)
}

// VerifyCover audits both label directions against BFS ground truth:
// forward BFS from each landmark, backward BFS to it.
func (idx *Index) VerifyCover() error {
	return idx.Core.VerifyCover(func(dir int, src uint32, dist []graph.Dist) {
		if dir == fwd {
			idx.G.Forward(src, dist)
		} else {
			idx.G.Backward(src, dist)
		}
	})
}

// EqualLabels reports whether two indexes hold identical labels in both
// directions and highway (see hcl.Core.EqualLabels).
func (idx *Index) EqualLabels(o *Index) error { return idx.Core.EqualLabels(&o.Core) }
