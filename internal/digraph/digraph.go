// Package digraph provides the directed dynamic graph substrate for the
// directed extension of IncHL+ (Section 5 of Farhan & Wang, EDBT 2021):
// adjacency in both directions, online edge/vertex insertion, and the
// forward/backward BFS primitives the directed labelling needs.
package digraph

import (
	"fmt"

	"repro/internal/bfs"
	"repro/internal/cow"
	"repro/internal/graph"
	"repro/internal/queue"
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
func (g *Digraph) Forward(src uint32, dist []graph.Dist) {
	g.bfs(src, dist, &g.out)
}

// Backward computes d(v→src) for all v into dist.
func (g *Digraph) Backward(src uint32, dist []graph.Dist) {
	g.bfs(src, dist, &g.in)
}

func (g *Digraph) bfs(src uint32, dist []graph.Dist, adj *cow.Table[uint32]) {
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	q := queue.NewUint32(64)
	q.Push(src)
	for !q.Empty() {
		v := q.Pop()
		dv := dist[v]
		for _, w := range adj.Row(v) {
			if dist[w] == graph.Inf {
				dist[w] = dv + 1
				q.Push(w)
			}
		}
	}
}

// Dist returns the exact directed distance u→v by plain BFS (test oracle).
func (g *Digraph) Dist(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	dist := make([]graph.Dist, g.NumVertices())
	g.Forward(u, dist)
	return dist[v]
}

// Sparsified runs a bounded bidirectional directed BFS from u (forward) and
// v (backward) on the subgraph excluding vertices for which avoid reports
// true (endpoints exempt). The bound is exclusive, as in bfs.Sparsified:
// it returns the u→v distance when it is below bound and graph.Inf
// otherwise, and its last useful level is a meet-only scan. Scratch
// conventions match bfs.Sparsified: s carries the distance vectors (all
// graph.Inf on entry, restored sparsely on return) and the frontier
// buffers, so a steady-state query allocates nothing.
func (g *Digraph) Sparsified(u, v uint32, bound graph.Dist, avoid func(uint32) bool, s *bfs.QuerySpace) graph.Dist {
	if bound == 0 {
		return graph.Inf
	}
	if u == v {
		return 0
	}
	distU, distV := s.DistU, s.DistV
	touched := s.Touched[:0]
	defer func() {
		for _, x := range touched {
			distU[x] = graph.Inf
			distV[x] = graph.Inf
		}
		s.Touched = touched // keep the grown capacity
	}()
	distU[u] = 0
	distV[v] = 0
	touched = append(touched, u, v)
	frontU := append(s.Fronts[0][:0], u)
	frontV := append(s.Fronts[1][:0], v)
	spare := s.Fronts[2][:0]
	var du, dv graph.Dist
	best := bound
	for len(frontU) > 0 && len(frontV) > 0 {
		next := graph.AddDist(du+dv, 1) // see bfs.Sparsified
		if next >= best {
			break
		}
		if next+1 == best {
			if len(frontU) <= len(frontV) && meets(&g.out, u, frontU, distV, avoid) ||
				len(frontU) > len(frontV) && meets(&g.in, v, frontV, distU, avoid) {
				best = next
			}
			break
		}
		if len(frontU) <= len(frontV) {
			next := g.expand(&g.out, u, v, frontU, du, distU, distV, avoid, &best, &touched, spare)
			spare, frontU = frontU[:0], next
			du++
		} else {
			next := g.expand(&g.in, v, u, frontV, dv, distV, distU, avoid, &best, &touched, spare)
			spare, frontV = frontV[:0], next
			dv++
		}
	}
	s.Fronts[0], s.Fronts[1], s.Fronts[2] = frontU, frontV, spare
	if best == bound {
		return graph.Inf
	}
	return best
}

// meets is bfs's meet-only level over adj: whether an arc leaves front,
// the deepest level of the side rooted at src, into the other side.
func meets(adj *cow.Table[uint32], src uint32, front []uint32, other []graph.Dist, avoid func(uint32) bool) bool {
	for _, x := range front {
		if avoid != nil && x != src && avoid(x) {
			continue
		}
		for _, w := range adj.Row(x) {
			if other[w] != graph.Inf {
				return true
			}
		}
	}
	return false
}

func (g *Digraph) expand(adj *cow.Table[uint32], src, dst uint32, front []uint32, depth graph.Dist, dist, other []graph.Dist, avoid func(uint32) bool, best *graph.Dist, touched *[]uint32, next []uint32) []uint32 {
	for _, x := range front {
		if avoid != nil && x != src && avoid(x) {
			continue
		}
		for _, w := range adj.Row(x) {
			if dist[w] != graph.Inf {
				continue
			}
			if avoid != nil && w != dst && w != src && avoid(w) {
				continue
			}
			dist[w] = depth + 1
			*touched = append(*touched, w)
			if other[w] != graph.Inf {
				if t := graph.AddDist(depth+1, other[w]); t < *best {
					*best = t
				}
			}
			next = append(next, w)
		}
	}
	return next
}
