// Package bfs implements the breadth-first-search toolkit shared by the
// labelling methods: full single-source BFS, distance queries between single
// pairs, and the bounded bidirectional search over a landmark-sparsified
// graph that turns a highway-cover upper bound into an exact distance
// (Section 3 of Farhan & Wang, EDBT 2021).
package bfs

import (
	"sync"

	"repro/internal/cow"
	"repro/internal/graph"
	"repro/internal/queue"
)

// QuerySpace is the per-query scratch of the bounded bidirectional searches
// (Sparsified here and digraph.Sparsified): two distance vectors whose
// entries are graph.Inf between queries, the touched list used to restore
// them sparsely, and the frontier buffers the search levels rotate through.
// Keeping the frontiers here (instead of allocating per level) is what
// makes the indexed query paths allocation-free in steady state.
type QuerySpace struct {
	DistU, DistV []graph.Dist
	Touched      []uint32

	// Fronts are the three frontier buffers the bidirectional searches
	// rotate (Sparsified here and digraph.Sparsified): the two live sides
	// plus the level under construction. Capacity persists across queries
	// drawn from the same pool.
	Fronts [3][]uint32
}

// SpacePool hands out query scratch sized for at least n vertices. Handing
// every in-flight query its own QuerySpace — instead of sharing one set of
// buffers on the index — is what makes the indexed query paths safe for any
// number of concurrent readers.
type SpacePool struct {
	pool sync.Pool
}

// Spaces is the query scratch pool shared by every BFS-based index (hcl,
// dhcl). One process-wide pool, rather than one per index, lets a freshly
// published epoch answer its first queries from scratch warmed by earlier
// epochs, and keeps no index alive through the runtime's pool registry.
var Spaces SpacePool

// Get returns a QuerySpace covering n vertices, entries all graph.Inf.
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

// Put returns s to the pool for reuse; s must be restored (all distance
// entries graph.Inf), which Sparsified guarantees on return.
func (sp *SpacePool) Put(s *QuerySpace) { sp.pool.Put(s) }

// All computes the distances from src to every vertex, writing them into
// dist, which must have length g.NumVertices(). Unreached vertices get
// graph.Inf.
func All(g *graph.Graph, src uint32, dist []graph.Dist) {
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	q := queue.NewUint32(64)
	q.Push(src)
	for !q.Empty() {
		v := q.Pop()
		dv := dist[v]
		for _, w := range g.Neighbors(v) {
			if dist[w] == graph.Inf {
				dist[w] = dv + 1
				q.Push(w)
			}
		}
	}
}

// Distances allocates and returns the full distance vector from src.
func Distances(g *graph.Graph, src uint32) []graph.Dist {
	dist := make([]graph.Dist, g.NumVertices())
	All(g, src, dist)
	return dist
}

// Dist returns the exact distance between u and v with a plain BFS. It is
// the ground-truth oracle used by tests and benchmark baselines, not by any
// indexed query path.
func Dist(g *graph.Graph, u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	dist := make([]graph.Dist, g.NumVertices())
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[u] = 0
	q := queue.NewUint32(64)
	q.Push(u)
	for !q.Empty() {
		x := q.Pop()
		dx := dist[x]
		for _, w := range g.Neighbors(x) {
			if dist[w] == graph.Inf {
				if w == v {
					return dx + 1
				}
				dist[w] = dx + 1
				q.Push(w)
			}
		}
	}
	return graph.Inf
}

// Sparsified runs a bidirectional BFS between u and v on the subgraph
// G[V\R] obtained by removing every vertex for which avoid reports true
// (the endpoints themselves are kept even if avoid holds, matching Q(u,v,Γ)
// in the paper). The bound is exclusive: the search looks only for paths
// shorter than bound, returns their length when one exists and graph.Inf
// otherwise, so a caller holding an upper bound d⊤ passes d⊤ itself and
// takes the smaller of the two. With bound 0 nothing qualifies, not even
// u == v.
//
// The level that can only produce paths of length exactly best-1 is a
// meet-only scan: it looks for one edge from the smaller frontier into the
// other side and writes nothing.
//
// s carries all scratch: distance vectors of length ≥ g.NumVertices()
// whose entries must all be graph.Inf on entry (restored sparsely before
// returning, so pooled scratch needs no re-clearing) and the frontier
// buffers. A steady-state query allocates nothing.
func Sparsified(g *graph.Graph, u, v uint32, bound graph.Dist, avoid func(uint32) bool, s *QuerySpace) graph.Dist {
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
	var du, dv graph.Dist // levels fully expanded on each side
	best := bound         // nothing shorter than bound found yet

	for len(frontU) > 0 && len(frontV) > 0 {
		// After expanding du levels on one side and dv on the other, every
		// path of length ≤ du+dv has been recorded as a meeting, so the
		// next level finds only paths of length du+dv+1: once that is
		// ≥ best no undiscovered path can improve on best, and when it is
		// best-1 the level need only look for one meeting.
		next := graph.AddDist(du+dv, 1)
		if next >= best {
			break
		}
		if next+1 == best {
			if len(frontU) <= len(frontV) && meets(g, u, frontU, distV, avoid) ||
				len(frontU) > len(frontV) && meets(g, v, frontV, distU, avoid) {
				best = next
			}
			break
		}
		if len(frontU) <= len(frontV) {
			next := expand(g, u, v, frontU, du, distU, distV, avoid, &best, &touched, spare)
			spare, frontU = frontU[:0], next
			du++
		} else {
			next := expand(g, v, u, frontV, dv, distV, distU, avoid, &best, &touched, spare)
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

// meets reports whether some vertex of front, the deepest level of the side
// rooted at src, has a neighbour the other side has reached. Such a
// neighbour passed the other side's avoid check when it was discovered, so
// only the frontier vertices are checked here.
func meets(g *graph.Graph, src uint32, front []uint32, other []graph.Dist, avoid func(uint32) bool) bool {
	for _, x := range front {
		if avoid != nil && x != src && avoid(x) {
			continue
		}
		for _, w := range g.Neighbors(x) {
			if other[w] != graph.Inf {
				return true
			}
		}
	}
	return false
}

// expand advances one BFS level of the side rooted at src, whose opposite
// endpoint is dst, appending the next level into next (length 0, reused
// capacity). Removed vertices are neither discovered nor expanded, except
// for the two endpoints.
func expand(g *graph.Graph, src, dst uint32, front []uint32, depth graph.Dist, dist, other []graph.Dist, avoid func(uint32) bool, best *graph.Dist, touched *[]uint32, next []uint32) []uint32 {
	for _, x := range front {
		if avoid != nil && x != src && avoid(x) {
			continue
		}
		for _, w := range g.Neighbors(x) {
			if dist[w] != graph.Inf {
				continue
			}
			if avoid != nil && w != dst && w != src && avoid(w) {
				continue // vertex removed from the sparsified graph
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
