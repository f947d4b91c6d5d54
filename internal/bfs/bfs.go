// Package bfs is the search toolkit of the labelling methods. It has one
// full single-source BFS and one bounded bidirectional BFS, the search that
// turns a highway-cover upper bound into an exact distance (Q(u,v,Γ),
// Section 3 of Farhan & Wang, EDBT 2021). Both walk copy-on-write adjacency
// tables: an undirected graph passes its one table as the forward and the
// backward table, a digraph its out- and in-arcs. The package also holds
// the query scratch of every indexed search, BFS and Dijkstra alike, and
// the one pool that hands it out.
package bfs

import (
	"runtime"
	"sync/atomic"
	_ "unsafe" // for go:linkname

	"repro/internal/cow"
	"repro/internal/graph"
	"repro/internal/queue"
)

// QuerySpace is the per-query scratch of the bounded bidirectional
// searches, the BFS here and the Dijkstra of wgraph: two distance vectors
// whose entries are graph.Inf between queries, the touched list used to
// restore them sparsely, the three frontier buffers the BFS levels rotate
// through, one radix heap per side for the Dijkstra, and Bounds, the
// weighted search's landmark table (hcl.Core.ALT): d(r, u) and d(r, v) per
// landmark rank r for the query pair (u, v), which each query overwrites.
// Every buffer keeps its capacity from query to query, which is what makes
// the indexed query paths allocation-free in steady state.
type QuerySpace struct {
	DistU, DistV []graph.Dist
	Touched      []uint32
	Fronts       [3][]uint32
	Heaps        [2]queue.PQ
	Bounds       [][2]graph.Dist
}

// SpacePool hands out query scratch sized for at least n vertices. Handing
// every in-flight query its own QuerySpace, instead of sharing one set of
// buffers on the index, is what makes the indexed query paths safe for any
// number of concurrent readers.
//
// The pool keeps at most one idle scratch per processor, so at most
// GOMAXPROCS (the largest it has been). Put leaves a scratch in the slot of
// the processor it runs on, and Get takes its own processor's scratch
// first, whose lines that processor's cache most likely still holds.
// Unlike a sync.Pool, whose per-processor slot no other processor can
// reach and whose contents a garbage collection drops, a Get that finds
// its own slot empty takes any other slot's scratch, even one left above a
// since lowered GOMAXPROCS, and no collection drops one. The zero value is
// an empty pool ready to use.
type SpacePool struct {
	slots [maxProcs]spaceSlot
}

// maxProcs is the number of slots; processors beyond it share slots.
const maxProcs = 128

// spaceSlot is one processor's idle scratch. The padding on both sides
// gives the pointer a cache line of its own, shared neither with the
// neighbouring slots nor with whatever the linker places beside a pool:
// sharing it cost BenchmarkReadsSnapshotParallel about a third of its
// throughput on a 2-vCPU VM.
type spaceSlot struct {
	_ [64]byte
	s atomic.Pointer[QuerySpace]
	_ [56]byte
}

// Spaces is the query scratch pool shared by every indexed search (the
// three variants of hcl, fulldyn). One process-wide pool, rather than one
// per index, lets a freshly published epoch answer its first queries from
// scratch warmed by earlier epochs.
var Spaces SpacePool

// Get returns a QuerySpace covering n vertices, distance entries all
// graph.Inf.
func (sp *SpacePool) Get(n int) *QuerySpace {
	s := sp.slots[proc()%maxProcs].s.Swap(nil)
	for i := 0; s == nil && i < maxProcs; i++ {
		if sl := &sp.slots[i].s; sl.Load() != nil {
			s = sl.Swap(nil)
		}
	}
	if s == nil {
		s = new(QuerySpace)
	}
	s.fit(n)
	return s
}

// Put returns s to the pool for reuse; s must be restored (all distance
// entries graph.Inf), which the searches guarantee on return. When its own
// processor's slot is taken, s goes to the first free slot below
// GOMAXPROCS, and is dropped when there is none.
func (sp *SpacePool) Put(s *QuerySpace) {
	if sp.slots[proc()%maxProcs].s.CompareAndSwap(nil, s) {
		return
	}
	for i, k := 0, min(runtime.GOMAXPROCS(0), maxProcs); i < k; i++ {
		if sl := &sp.slots[i].s; sl.Load() == nil && sl.CompareAndSwap(nil, s) {
			return
		}
	}
}

// proc returns the id of the processor running the caller, below
// GOMAXPROCS. It pins and at once unpins the goroutine, as sync.Pool does,
// so the id only says where to look first: the goroutine may move to
// another processor right after.
func proc() int {
	p := procPin()
	procUnpin()
	return p
}

// procPin and procUnpin are the runtime's. Its source marks both as kept
// linkable from outside the standard library with their signatures
// unchanged, for the packages that already link them.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// fit lengthens the distance vectors to at least n entries. They grow
// geometrically (cow.Grow) and only the new entries are set to graph.Inf,
// so the queries after each added vertex do not each rebuild the scratch.
func (s *QuerySpace) fit(n int) {
	old := len(s.DistU)
	if old >= n {
		return
	}
	s.DistU, s.DistV = cow.Grow(s.DistU, n), cow.Grow(s.DistV, n)
	for i := old; i < n; i++ {
		s.DistU[i], s.DistV[i] = graph.Inf, graph.Inf
	}
}

// Block removes the vertices vs from the searches run on s until Unblock.
// It gives each distance 0 on both sides, so neither the BFS here nor the
// Dijkstra of wgraph discovers or expands one, and meets does not count
// one: avoid without a call per arc. No vertex of vs may be an endpoint of
// a search run while it is blocked, and s must fit them all (Spaces.Get
// with the graph's vertex count).
func (s *QuerySpace) Block(vs []uint32) {
	for _, x := range vs {
		s.DistU[x], s.DistV[x] = 0, 0
	}
}

// Unblock returns the entries Block wrote to graph.Inf, which a pooled
// scratch holds between queries.
func (s *QuerySpace) Unblock(vs []uint32) {
	for _, x := range vs {
		s.DistU[x], s.DistV[x] = graph.Inf, graph.Inf
	}
}

// All computes the distances from src to every vertex of g, writing them
// into dist, which must have length g.NumVertices(). Unreached vertices get
// graph.Inf.
func All(g *graph.Graph, src uint32, dist []graph.Dist) { AllOver(g.Adj(), src, dist) }

// AllOver is All over one adjacency table: the distances from src along
// the table's rows, into dist of length adj.Len().
func AllOver(adj *cow.Table[uint32], src uint32, dist []graph.Dist) {
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	var q queue.FIFO[uint32]
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

// Distances allocates and returns the full distance vector from src.
func Distances(g *graph.Graph, src uint32) []graph.Dist {
	dist := make([]graph.Dist, g.NumVertices())
	All(g, src, dist)
	return dist
}

// Dist returns the exact distance between u and v with a plain BFS. It is
// the ground-truth oracle used by tests and benchmark baselines, not by any
// indexed query path.
func Dist(g *graph.Graph, u, v uint32) graph.Dist { return Distances(g, u)[v] }

// Sparsified runs the bounded bidirectional BFS of SparsifiedOver between
// u and v on the undirected graph g, whose one adjacency table serves both
// sides.
func Sparsified(g *graph.Graph, u, v uint32, bound graph.Dist, avoid func(uint32) bool, s *QuerySpace) graph.Dist {
	adj := g.Adj()
	return SparsifiedOver(adj, adj, u, v, bound, avoid, s)
}

// SparsifiedOver runs a bidirectional BFS from u along fwd and from v
// along bwd on the subgraph G[V\R] obtained by removing every vertex for
// which avoid reports true (the endpoints themselves are kept even if
// avoid holds, matching Q(u,v,Γ) in the paper). For a digraph fwd holds
// the out-arcs and bwd the in-arcs, so the search finds u→v paths; an
// undirected graph passes its one table twice. The bound is exclusive: the
// search looks only for paths shorter than bound, returns their length
// when one exists and graph.Inf otherwise, so a caller holding an upper
// bound d⊤ passes d⊤ itself and takes the smaller of the two. With bound 0
// nothing qualifies, not even u == v.
//
// The level that can only produce paths of length exactly best-1 is a
// meet-only scan: it looks for one arc from the smaller frontier into the
// other side and writes nothing.
//
// s carries all scratch: distance vectors of length ≥ the tables' whose
// entries must be graph.Inf on entry (restored sparsely before returning,
// so pooled scratch needs no re-clearing) and the frontier buffers,
// except for the vertices s.Block removed, whose entries the search leaves
// as they were. A steady-state query allocates nothing.
func SparsifiedOver(fwd, bwd *cow.Table[uint32], u, v uint32, bound graph.Dist, avoid func(uint32) bool, s *QuerySpace) graph.Dist {
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
			if len(frontU) <= len(frontV) && meets(fwd, u, v, frontU, distV, avoid) ||
				len(frontU) > len(frontV) && meets(bwd, v, u, frontV, distU, avoid) {
				best = next
			}
			break
		}
		if len(frontU) <= len(frontV) {
			next := expand(fwd, u, v, frontU, du, distU, distV, avoid, &best, &touched, spare)
			spare, frontU = frontU[:0], next
			du++
		} else {
			next := expand(bwd, v, u, frontV, dv, distV, distU, avoid, &best, &touched, spare)
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
// rooted at src, has an arc in adj to a vertex the other side, rooted at
// dst, has reached. Such a vertex passed the other side's avoid check when
// it was discovered, so only the frontier vertices are checked here. A
// vertex removed by Block reads 0 on the other side, as among reached
// vertices only dst itself does, so an arc to a 0 entry meets only at dst.
func meets(adj *cow.Table[uint32], src, dst uint32, front []uint32, other []graph.Dist, avoid func(uint32) bool) bool {
	for _, x := range front {
		if avoid != nil && x != src && avoid(x) {
			continue
		}
		for _, w := range adj.Row(x) {
			if d := other[w]; d != graph.Inf && (d != 0 || w == dst) {
				return true
			}
		}
	}
	return false
}

// expand advances one BFS level along adj of the side rooted at src, whose
// opposite endpoint is dst, appending the next level into next (length 0,
// reused capacity). Removed vertices are neither discovered nor expanded,
// except for the two endpoints; one removed by Block is never discovered,
// as its distance on this side is already 0.
func expand(adj *cow.Table[uint32], src, dst uint32, front []uint32, depth graph.Dist, dist, other []graph.Dist, avoid func(uint32) bool, best *graph.Dist, touched *[]uint32, next []uint32) []uint32 {
	for _, x := range front {
		if avoid != nil && x != src && avoid(x) {
			continue
		}
		for _, w := range adj.Row(x) {
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
