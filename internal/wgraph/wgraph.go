// Package wgraph provides the positively-weighted undirected graph
// substrate for the weighted extension of IncHL+ (Section 5 of Farhan &
// Wang, EDBT 2021), together with the two Dijkstras that replace BFS there:
// a full one and the bounded bidirectional one of the queries, which a
// caller's lower bound on the distance to each endpoint may prune. Both run
// on queue's radix heap, and the bounded one on the query scratch that bfs
// hands out to every indexed search. Weights are integral and at least 1,
// which keeps the shortest-path DAG acyclic across equal-distance vertices.
package wgraph

import (
	"fmt"
	"slices"

	"repro/internal/bfs"
	"repro/internal/cow"
	"repro/internal/graph"
	"repro/internal/queue"
)

// Arc is one weighted adjacency entry.
type Arc struct {
	To uint32
	W  graph.Dist // ≥ 1
}

// Graph is an undirected, positively-weighted dynamic graph.
type Graph struct {
	adj   cow.Table[Arc] // copy-on-write across forks (see Fork)
	edges uint64
}

// New returns an empty weighted graph. The vertex-count hint n is unused:
// adjacency grows one chunk of vertices at a time.
func New(n int) *Graph { return &Graph{} }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.adj.Len() }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() uint64 { return g.edges }

// AddVertex appends a new isolated vertex and returns its id.
func (g *Graph) AddVertex() uint32 {
	g.adj.Grow(g.adj.Len() + 1)
	return uint32(g.adj.Len() - 1)
}

// HasVertex reports whether v exists.
func (g *Graph) HasVertex(v uint32) bool { return int(v) < g.adj.Len() }

// Neighbors returns the weighted adjacency of v (owned by the graph).
func (g *Graph) Neighbors(v uint32) []Arc { return g.adj.Row(v) }

// Weight returns the weight of edge (u,v), or 0 if absent.
func (g *Graph) Weight(u, v uint32) graph.Dist {
	if !g.HasVertex(u) {
		return 0
	}
	for _, a := range g.adj.Row(u) {
		if a.To == v {
			return a.W
		}
	}
	return 0
}

// HasEdge reports whether edge (u,v) exists.
func (g *Graph) HasEdge(u, v uint32) bool { return g.Weight(u, v) != 0 }

// AddEdge inserts the undirected edge (u,v) with weight w ≥ 1, reporting
// whether it was new.
func (g *Graph) AddEdge(u, v uint32, w graph.Dist) (bool, error) {
	if err := CheckArc(u, v, w); err != nil {
		return false, err
	}
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return false, fmt.Errorf("%w: edge (%d,%d) with %d vertices", graph.ErrVertexUnknown, u, v, g.NumVertices())
	}
	if g.HasEdge(u, v) {
		return false, nil
	}
	g.adj.Append(u, Arc{To: v, W: w})
	g.adj.Append(v, Arc{To: u, W: w})
	g.edges++
	return true, nil
}

// CheckArc rejects what no weighted graph can hold: a self-loop (u == v)
// or a weight outside [1, Inf).
func CheckArc(u, v uint32, w graph.Dist) error {
	if u == v {
		return graph.ErrSelfLoop
	}
	if w < 1 || w == graph.Inf {
		return fmt.Errorf("wgraph: edge (%d,%d): weight %d out of range", u, v, w)
	}
	return nil
}

// RemoveEdge deletes the undirected edge (u,v), returning its weight. It
// returns graph.ErrSelfLoop for u == v, graph.ErrVertexUnknown when either
// endpoint does not exist and graph.ErrEdgeUnknown when the edge is not
// present.
func (g *Graph) RemoveEdge(u, v uint32) (graph.Dist, error) {
	if u == v {
		return 0, graph.ErrSelfLoop
	}
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return 0, fmt.Errorf("%w: edge (%d,%d) with %d vertices", graph.ErrVertexUnknown, u, v, g.NumVertices())
	}
	if !g.HasEdge(u, v) {
		return 0, fmt.Errorf("%w: (%d,%d)", graph.ErrEdgeUnknown, u, v)
	}
	j := arcTo(g.adj.Row(u), v)
	w := g.adj.Row(u)[j].W
	g.adj.Remove(u, j)
	g.adj.Remove(v, arcTo(g.adj.Row(v), u))
	g.edges--
	return w, nil
}

// arcTo returns the index of the arc to x in list, or -1.
func arcTo(list []Arc, x uint32) int {
	return slices.IndexFunc(list, func(a Arc) bool { return a.To == x })
}

// Fork returns a copy-on-write copy: only the chunk directory of the
// adjacency table is copied, and the fork's first write to a chunk of 512
// vertices copies that chunk's span table and overflow (see internal/cow).
// Mutating the fork never writes to memory reachable from g; g must be
// treated as frozen afterwards (snapshot discipline).
func (g *Graph) Fork() *Graph {
	return &Graph{adj: g.adj.Fork(), edges: g.edges}
}

// MustAddEdge inserts (u,v,w), growing the vertex set as needed.
func (g *Graph) MustAddEdge(u, v uint32, w graph.Dist) bool {
	for !g.HasVertex(max(u, v)) {
		g.AddVertex()
	}
	ok, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return ok
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	return &Graph{adj: g.adj.Clone(), edges: g.edges}
}

// QuerySpace and SpacePool name bfs's query scratch and pool, which carry
// Sparsified's two radix heaps too. Only the bench/trace harness still
// uses these names.
type (
	QuerySpace = bfs.QuerySpace
	SpacePool  = bfs.SpacePool
)

// Dijkstra computes the distances from src into dist (length NumVertices),
// returning the vertices it settled in non-decreasing distance order.
func (g *Graph) Dijkstra(src uint32, dist []graph.Dist) []uint32 {
	for i := range dist {
		dist[i] = graph.Inf
	}
	order := make([]uint32, 0, 64)
	var pq queue.PQ
	dist[src] = 0
	pq.PushItem(queue.Item{V: src, D: 0})
	for pq.Len() > 0 {
		it := pq.PopItem()
		if it.D != dist[it.V] {
			continue // stale entry
		}
		order = append(order, it.V)
		for _, a := range g.adj.Row(it.V) {
			if nd := graph.AddDist(it.D, a.W); nd < dist[a.To] {
				dist[a.To] = nd
				pq.PushItem(queue.Item{V: a.To, D: nd})
			}
		}
	}
	return order
}

// Dist returns the exact distance between u and v (test oracle).
func (g *Graph) Dist(u, v uint32) graph.Dist {
	dist := make([]graph.Dist, g.NumVertices())
	g.Dijkstra(u, dist)
	return dist[v]
}

// Sparsified runs a bounded bidirectional Dijkstra between u and v on the
// subgraph excluding vertices for which avoid reports true (endpoints
// exempt). The bound is exclusive, as in bfs.Sparsified: it returns the
// distance when it is below bound and graph.Inf otherwise. Each step
// settles one vertex on the side with fewer queued items.
// s carries all scratch: distance vectors of length ≥ NumVertices whose
// entries are graph.Inf on entry (restored sparsely on return), except
// for the vertices s.Block removed, and the two radix heaps (s.Heaps). A
// steady-state query allocates nothing. It is SparsifiedLB without a lower
// bound.
func (g *Graph) Sparsified(u, v uint32, bound graph.Dist, avoid func(uint32) bool, s *bfs.QuerySpace) graph.Dist {
	return g.SparsifiedLB(u, v, bound, avoid, nil, s)
}

// SparsifiedLB is Sparsified pruned by a lower bound: lower(x, t), for t
// one of the endpoints u and v, must be at most the distance from x to t
// in the subgraph. A side rooted at one endpoint asks it once for each
// vertex x it pops at x's final distance d, and settles x without
// expanding it when d + lower(x, t) is at least the best path found, since
// no path through x can then beat it. The Dijkstra order, the bound and
// the stopping rule are Sparsified's, and so are the answers. A nil lower
// is Sparsified.
func (g *Graph) SparsifiedLB(u, v uint32, bound graph.Dist, avoid func(uint32) bool, lower func(x, t uint32) graph.Dist, s *bfs.QuerySpace) graph.Dist {
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
	pqU, pqV := &s.Heaps[0], &s.Heaps[1]
	pqU.Reset() // a search that stopped at its bound leaves items behind
	pqV.Reset()
	distU[u] = 0
	distV[v] = 0
	touched = append(touched, u, v)
	pqU.PushItem(queue.Item{V: u, D: 0})
	pqV.PushItem(queue.Item{V: v, D: 0})
	best := bound // nothing shorter than bound found yet
	topU, topV := graph.Dist(0), graph.Dist(0)
	for pqU.Len() > 0 && pqV.Len() > 0 {
		if graph.AddDist(topU, topV) >= best {
			break // settled radii already cover every candidate below best
		}
		if pqU.Len() <= pqV.Len() { // grow the side with fewer queued items
			topU = settle(g, pqU, distU, distV, u, v, topV, avoid, lower, &best, &touched)
		} else {
			topV = settle(g, pqV, distV, distU, v, u, topU, avoid, lower, &best, &touched)
		}
	}
	if best == bound {
		return graph.Inf
	}
	return best
}

// settle pops one vertex from the side rooted at src and relaxes its edges,
// recording meets with the opposite side, rooted at dst. Distance entries
// are graph.Inf for undiscovered vertices, and no relaxation improves the
// 0 of a vertex removed by bfs.QuerySpace.Block. Every vertex whose
// distance on this side stops being graph.Inf is appended to touched when
// it is written, so the caller can restore sparsely. An arc is checked
// against avoid only when it would improve a distance, as bfs's expand
// does.
//
// A popped vertex x at distance d is settled but not expanded when d, or
// with a lower bound d + lower(x, dst), is at least best. This is exact: a
// vertex of a path shorter than best, popped at its exact distance, has
// d + lower(x, dst) ≤ d + d(x, dst) < best. A vertex is popped at its
// final distance at most once per side, so lower is asked at most once
// per vertex and side, and never for dst: writing dst's distance on this
// side records its meet, so best is at most that distance and the
// otherTop test below never pushes it.
//
// A relaxed vertex is neither written nor pushed when its new distance plus
// otherTop, the key the opposite side last settled, is at least best. A
// shortest path shorter than best stays findable: where it leaves this
// side's settled part, the opposite side has either settled the rest of it
// already, and the meet check above records the path, or the rest is at
// least otherTop long.
func settle(g *Graph, pq *queue.PQ, dist, other []graph.Dist, src, dst uint32, otherTop graph.Dist, avoid func(uint32) bool, lower func(x, t uint32) graph.Dist, best *graph.Dist, touched *[]uint32) graph.Dist {
	for pq.Len() > 0 {
		it := pq.PopItem()
		if dist[it.V] != it.D {
			continue // stale entry
		}
		if avoid != nil && it.V != src && avoid(it.V) {
			return it.D // settled but not expanded: removed vertex
		}
		if it.D >= *best ||
			lower != nil && graph.AddDist(it.D, lower(it.V, dst)) >= *best {
			return it.D // settled but not expanded: no shorter path through it
		}
		for _, a := range g.adj.Row(it.V) {
			nd := graph.AddDist(it.D, a.W)
			if nd >= dist[a.To] {
				continue
			}
			if avoid != nil && a.To != dst && a.To != src && avoid(a.To) {
				continue // vertex removed from the sparsified graph
			}
			if od := other[a.To]; od != graph.Inf {
				if t := graph.AddDist(nd, od); t < *best {
					*best = t
				}
			}
			if graph.AddDist(nd, otherTop) >= *best {
				continue
			}
			if dist[a.To] == graph.Inf {
				*touched = append(*touched, a.To)
			}
			dist[a.To] = nd
			pq.PushItem(queue.Item{V: a.To, D: nd})
		}
		return it.D
	}
	return graph.Inf
}
