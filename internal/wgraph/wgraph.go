// Package wgraph provides the positively-weighted undirected graph
// substrate for the weighted extension of IncHL+ (Section 5 of Farhan &
// Wang, EDBT 2021), together with the Dijkstra primitives that replace BFS
// there. Weights are integral and at least 1, which keeps the
// shortest-path DAG acyclic across equal-distance vertices.
package wgraph

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cow"
	"repro/internal/graph"
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
	au := g.adj.Mut(u)
	*au = append(*au, Arc{To: v, W: w})
	av := g.adj.Mut(v)
	*av = append(*av, Arc{To: u, W: w})
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
	w, _ := removeArc(g.adj.Mut(u), v)
	removeArc(g.adj.Mut(v), u)
	g.edges--
	return w, nil
}

// Fork returns a copy-on-write copy: only the chunk directory of the
// adjacency table and one bit per vertex are copied, and the fork's first
// write to a vertex copies its chunk of list headers and then its list
// (see internal/cow). Mutating the fork never writes to memory reachable
// from g; g must be treated as frozen afterwards (snapshot discipline).
func (g *Graph) Fork() *Graph {
	return &Graph{adj: g.adj.Fork(), edges: g.edges}
}

// removeArc deletes the arc to x from *list (swap with last; adjacency
// order is unspecified), returning its weight and whether it was present.
func removeArc(list *[]Arc, x uint32) (graph.Dist, bool) {
	l := *list
	for i, a := range l {
		if a.To == x {
			w := a.W
			l[i] = l[len(l)-1]
			*list = l[:len(l)-1]
			return w, true
		}
	}
	return 0, false
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

// Item is a priority-queue element.
type Item struct {
	V uint32
	D graph.Dist
}

// PQ is a monotone radix heap of Items ordered by distance (Ahuja,
// Mehlhorn, Orlin & Tarjan, JACM 1990). It relies on the Dijkstra
// contract: every key pushed is at least the key last popped (0 after
// Reset), which holds whenever keys are a popped distance plus a
// non-negative weight. A push that breaks the contract is a bug and pops
// out of order.
//
// Bucket i holds the keys d with bits.Len32(d ^ last) = i, where last is
// the key last popped; bucket 0 holds keys equal to last. A push is one
// append. A pop takes from bucket 0, first refilling it from the lowest
// non-empty bucket when it is empty: that bucket's minimum becomes last and
// its items move to strictly lower buckets, so each item moves at most 32
// times over its life in the queue. Items of equal key pop in unspecified
// order. The zero PQ is empty and ready to use; the buckets keep their
// capacity across Reset, so a reused PQ allocates nothing in steady state.
type PQ struct {
	b    [33][]Item
	last graph.Dist
	n    int
}

// Len returns the number of queued items, stale ones included.
func (p *PQ) Len() int { return p.n }

// PushItem inserts it; it.D must be at least the key last popped.
func (p *PQ) PushItem(it Item) {
	i := bits.Len32(it.D ^ p.last)
	p.b[i] = append(p.b[i], it)
	p.n++
}

// PopItem removes and returns a minimum-distance item. The queue must not
// be empty.
func (p *PQ) PopItem() Item {
	if len(p.b[0]) == 0 {
		p.refill()
	}
	b0 := p.b[0]
	it := b0[len(b0)-1]
	p.b[0] = b0[:len(b0)-1]
	p.n--
	return it
}

// refill makes the minimum of the lowest non-empty bucket the new last key
// and redistributes that bucket: its keys agree with last on every bit from
// its index up, so each lands in a lower bucket, the minimum in bucket 0.
func (p *PQ) refill() {
	i := 1
	for len(p.b[i]) == 0 {
		i++
	}
	src := p.b[i]
	m := src[0].D
	for _, it := range src[1:] {
		m = min(m, it.D)
	}
	p.last = m
	for _, it := range src {
		j := bits.Len32(it.D ^ m)
		p.b[j] = append(p.b[j], it)
	}
	p.b[i] = src[:0]
}

// Reset empties the queue, keeping each bucket's capacity.
func (p *PQ) Reset() {
	for i := range p.b {
		p.b[i] = p.b[i][:0]
	}
	p.last, p.n = 0, 0
}

// QuerySpace is the per-query scratch of the bounded bidirectional Dijkstra
// (Sparsified): two distance vectors whose entries are graph.Inf between
// queries, the touched list used to restore them sparsely, and one radix
// heap per side, whose buckets keep their capacity from query to query.
// Mirrors bfs.QuerySpace for the weighted searches; a steady-state query
// allocates nothing.
type QuerySpace struct {
	DistU, DistV []graph.Dist
	Touched      []uint32
	pqU, pqV     PQ
}

// SpacePool hands out query scratch sized for at least n vertices, giving
// every in-flight query its own buffers so queries stay safe for any number
// of concurrent readers.
type SpacePool struct {
	pool sync.Pool
}

// Spaces is the query scratch pool shared by every weighted index. One
// process-wide pool, rather than one per index, lets a freshly published
// epoch answer its first queries from scratch warmed by earlier epochs,
// and keeps no index alive through the runtime's pool registry.
var Spaces SpacePool

// Get returns a QuerySpace covering n vertices, distance entries all
// graph.Inf.
func (sp *SpacePool) Get(n int) *QuerySpace {
	s, _ := sp.pool.Get().(*QuerySpace)
	if s == nil {
		s = &QuerySpace{}
	}
	s.fit(n)
	return s
}

// fit lengthens the distance vectors to at least n entries. They grow
// geometrically (cow.Grow) and only the new entries are set to graph.Inf,
// so the queries after each added vertex do not each rebuild the scratch.
func (s *QuerySpace) fit(n int) {
	if old := len(s.DistU); old < n {
		s.DistU, s.DistV = cow.Grow(s.DistU, n), cow.Grow(s.DistV, n)
		for i := old; i < n; i++ {
			s.DistU[i], s.DistV[i] = graph.Inf, graph.Inf
		}
	}
}

// Put returns s to the pool; its distance entries must be graph.Inf again,
// which Sparsified guarantees on return.
func (sp *SpacePool) Put(s *QuerySpace) { sp.pool.Put(s) }

// Dijkstra computes the distances from src into dist (length NumVertices),
// returning the vertices it settled in non-decreasing distance order.
func (g *Graph) Dijkstra(src uint32, dist []graph.Dist) []uint32 {
	for i := range dist {
		dist[i] = graph.Inf
	}
	order := make([]uint32, 0, 64)
	var pq PQ
	dist[src] = 0
	pq.PushItem(Item{V: src, D: 0})
	for pq.Len() > 0 {
		it := pq.PopItem()
		if it.D != dist[it.V] {
			continue // stale entry
		}
		order = append(order, it.V)
		for _, a := range g.adj.Row(it.V) {
			if nd := graph.AddDist(it.D, a.W); nd < dist[a.To] {
				dist[a.To] = nd
				pq.PushItem(Item{V: a.To, D: nd})
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
// entries must all be graph.Inf on entry (restored sparsely on return) and
// the two radix heaps. A steady-state query allocates nothing.
func (g *Graph) Sparsified(u, v uint32, bound graph.Dist, avoid func(uint32) bool, s *QuerySpace) graph.Dist {
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
	pqU, pqV := &s.pqU, &s.pqV
	pqU.Reset() // a search that stopped at its bound leaves items behind
	pqV.Reset()
	distU[u] = 0
	distV[v] = 0
	touched = append(touched, u, v)
	pqU.PushItem(Item{V: u, D: 0})
	pqV.PushItem(Item{V: v, D: 0})
	best := bound // nothing shorter than bound found yet
	topU, topV := graph.Dist(0), graph.Dist(0)
	for pqU.Len() > 0 && pqV.Len() > 0 {
		if graph.AddDist(topU, topV) >= best {
			break // settled radii already cover every candidate below best
		}
		if pqU.Len() <= pqV.Len() { // grow the side with fewer queued items
			topU = settle(g, pqU, distU, distV, u, v, topV, avoid, &best, &touched)
		} else {
			topV = settle(g, pqV, distV, distU, v, u, topU, avoid, &best, &touched)
		}
	}
	if best == bound {
		return graph.Inf
	}
	return best
}

// settle pops one vertex from the side rooted at src and relaxes its edges,
// recording meets with the opposite side. Distance entries are graph.Inf
// for undiscovered vertices; every first discovery is appended to touched
// so the caller can restore sparsely. An arc is checked against avoid only
// when it would improve a distance, as bfs's expand does.
//
// A relaxed vertex is neither written nor pushed when its new distance plus
// otherTop, the key the opposite side last settled, is at least best. A
// shortest path shorter than best stays findable: where it leaves this
// side's settled part, the opposite side has either settled the rest of it
// already, and the meet check above records the path, or the rest is at
// least otherTop long.
func settle(g *Graph, pq *PQ, dist, other []graph.Dist, src, dst uint32, otherTop graph.Dist, avoid func(uint32) bool, best *graph.Dist, touched *[]uint32) graph.Dist {
	for pq.Len() > 0 {
		it := pq.PopItem()
		if dist[it.V] != it.D {
			continue // stale entry
		}
		if avoid != nil && it.V != src && avoid(it.V) {
			return it.D // settled but not expanded: removed vertex
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
			pq.PushItem(Item{V: a.To, D: nd})
		}
		return it.D
	}
	return graph.Inf
}
