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
// through and one radix heap per side for the Dijkstra. LowU and LowV are
// the Dijkstra's caches of lower bounds to the opposite endpoint, graph.Inf
// between queries too; they stay empty until a search that uses them
// calls FitLower, so the BFS paths never hold them. Every buffer keeps its
// capacity from query to query, which is what makes the indexed query paths
// allocation-free in steady state.
type QuerySpace struct {
	DistU, DistV []graph.Dist
	LowU, LowV   []graph.Dist
	Touched      []uint32
	Fronts       [3][]uint32
	Heaps        [2]queue.PQ
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

// fit lengthens the distance vectors to at least n entries (see growPair).
func (s *QuerySpace) fit(n int) {
	if len(s.DistU) < n {
		growPair(&s.DistU, &s.DistV, n)
	}
}

// FitLower lengthens the lower-bound caches to at least n entries, as fit
// does the distance vectors.
func (s *QuerySpace) FitLower(n int) {
	if len(s.LowU) < n {
		growPair(&s.LowU, &s.LowV, n)
	}
}

// growPair lengthens two vectors of graph.Inf of equal length to n
// entries. They grow geometrically (cow.Grow) and only the new entries are
// set to graph.Inf, so the queries after each added vertex do not each
// rebuild the scratch.
func growPair(a, b *[]graph.Dist, n int) {
	old := len(*a)
	*a, *b = cow.Grow(*a, n), cow.Grow(*b, n)
	for i := old; i < n; i++ {
		(*a)[i], (*b)[i] = graph.Inf, graph.Inf
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
// entries must all be graph.Inf on entry (restored sparsely before
// returning, so pooled scratch needs no re-clearing) and the frontier
// buffers. A steady-state query allocates nothing.
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
			if len(frontU) <= len(frontV) && meets(fwd, u, frontU, distV, avoid) ||
				len(frontU) > len(frontV) && meets(bwd, v, frontV, distU, avoid) {
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
// rooted at src, has an arc in adj to a vertex the other side has reached.
// Such a vertex passed the other side's avoid check when it was discovered,
// so only the frontier vertices are checked here.
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

// expand advances one BFS level along adj of the side rooted at src, whose
// opposite endpoint is dst, appending the next level into next (length 0,
// reused capacity). Removed vertices are neither discovered nor expanded,
// except for the two endpoints.
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
