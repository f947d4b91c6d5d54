// Package digraph provides the directed dynamic graph substrate for the
// directed extension of IncHL+ (Section 5 of Farhan & Wang, EDBT 2021):
// adjacency in both directions and online edge/vertex insertion. Its
// searches, full and bounded, are internal/bfs's, run forward over the
// out-arcs and backward over the in-arcs.
package digraph

import (
	"fmt"

	"repro/internal/bfs"
	"repro/internal/cow"
	"repro/internal/graph"
)

// Digraph is a directed, unweighted dynamic graph over vertices
// 0..NumVertices-1. Both out- and in-adjacency are maintained so backward
// searches run without transposition. The zero value is ready to use.
type Digraph struct {
	out   cow.Table[uint32] // copy-on-write across forks (see Fork)
	in    cow.Table[uint32]
	edges uint64
}

// New returns an empty digraph. The vertex-count hint n is unused:
// adjacency grows one chunk of vertices at a time.
func New(n int) *Digraph { return &Digraph{} }

// NumVertices returns the number of vertices.
func (g *Digraph) NumVertices() int { return g.out.Len() }

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() uint64 { return g.edges }

// AddVertex appends a new isolated vertex and returns its id.
func (g *Digraph) AddVertex() uint32 {
	n := g.out.Len() + 1
	g.out.Grow(n)
	g.in.Grow(n)
	return uint32(n - 1)
}

// HasVertex reports whether v exists.
func (g *Digraph) HasVertex(v uint32) bool { return int(v) < g.out.Len() }

// Out returns the out-neighbours of v (owned by the graph; do not modify).
func (g *Digraph) Out(v uint32) []uint32 { return g.out.Row(v) }

// In returns the in-neighbours of v (owned by the graph; do not modify).
func (g *Digraph) In(v uint32) []uint32 { return g.in.Row(v) }

// HasEdge reports whether the directed edge u→v exists.
func (g *Digraph) HasEdge(u, v uint32) bool {
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return false
	}
	for _, w := range g.out.Row(u) {
		if w == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the directed edge u→v, reporting whether it was new.
func (g *Digraph) AddEdge(u, v uint32) (bool, error) {
	if u == v {
		return false, graph.ErrSelfLoop
	}
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return false, fmt.Errorf("%w: edge (%d,%d) with %d vertices", graph.ErrVertexUnknown, u, v, g.NumVertices())
	}
	if g.HasEdge(u, v) {
		return false, nil
	}
	out := g.out.Mut(u)
	*out = append(*out, v)
	in := g.in.Mut(v)
	*in = append(*in, u)
	g.edges++
	return true, nil
}

// RemoveEdge deletes the directed edge u→v. It returns graph.ErrSelfLoop
// for u == v, graph.ErrVertexUnknown when either endpoint does not exist and
// graph.ErrEdgeUnknown when the edge is not present.
func (g *Digraph) RemoveEdge(u, v uint32) error {
	if u == v {
		return graph.ErrSelfLoop
	}
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return fmt.Errorf("%w: edge (%d,%d) with %d vertices", graph.ErrVertexUnknown, u, v, g.NumVertices())
	}
	if !g.HasEdge(u, v) {
		return fmt.Errorf("%w: (%d,%d)", graph.ErrEdgeUnknown, u, v)
	}
	graph.RemoveFromList(g.out.Mut(u), v)
	graph.RemoveFromList(g.in.Mut(v), u)
	g.edges--
	return nil
}

// Fork returns a copy-on-write copy: only the chunk directories of the two
// adjacency tables and one bit per vertex each are copied, and the fork's
// first write to a vertex copies its chunk of list headers and then its
// list (see internal/cow). Mutating the fork never writes to memory
// reachable from g; g must be treated as frozen afterwards (snapshot
// discipline).
func (g *Digraph) Fork() *Digraph {
	return &Digraph{out: g.out.Fork(), in: g.in.Fork(), edges: g.edges}
}

// MustAddEdge inserts u→v, growing the vertex set as needed.
func (g *Digraph) MustAddEdge(u, v uint32) bool {
	for !g.HasVertex(max(u, v)) {
		g.AddVertex()
	}
	ok, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return ok
}

// Clone returns a deep copy.
func (g *Digraph) Clone() *Digraph {
	return &Digraph{out: g.out.Clone(), in: g.in.Clone(), edges: g.edges}
}

// OutDegree and InDegree report adjacency sizes.
func (g *Digraph) OutDegree(v uint32) int { return len(g.out.Row(v)) }

// InDegree reports the number of in-neighbours of v.
func (g *Digraph) InDegree(v uint32) int { return len(g.in.Row(v)) }

// Forward computes d(src→v) for all v into dist (length NumVertices).
func (g *Digraph) Forward(src uint32, dist []graph.Dist) { bfs.AllOver(&g.out, src, dist) }

// Backward computes d(v→src) for all v into dist.
func (g *Digraph) Backward(src uint32, dist []graph.Dist) { bfs.AllOver(&g.in, src, dist) }

// Dist returns the exact directed distance u→v by plain BFS (test oracle).
func (g *Digraph) Dist(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	dist := make([]graph.Dist, g.NumVertices())
	g.Forward(u, dist)
	return dist[v]
}

// Sparsified runs bfs.SparsifiedOver from u forward along the out-arcs
// and from v backward along the in-arcs: the u→v distance on the subgraph
// without the vertices for which avoid reports true (endpoints exempt),
// when it is below the exclusive bound, and graph.Inf otherwise.
func (g *Digraph) Sparsified(u, v uint32, bound graph.Dist, avoid func(uint32) bool, s *bfs.QuerySpace) graph.Dist {
	return bfs.SparsifiedOver(&g.out, &g.in, u, v, bound, avoid, s)
}
