package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Inf is the distance of a disconnected pair; hlserver answers null for it.
const Inf = math.MaxUint32

// Graph is the benchmark's own undirected graph, optionally weighted: the
// generators build it, the edge-list file is written from it, the update
// streams are generated against it, and the correctness check replays the
// served update log onto a copy of it.
type Graph struct {
	adj [][]uint32
	wts [][]uint32 // parallel to adj; nil for an unweighted graph
	m   int
}

// NewGraph returns n isolated vertices.
func NewGraph(n int, weighted bool) *Graph {
	g := &Graph{adj: make([][]uint32, n)}
	if weighted {
		g.wts = make([][]uint32, n)
	}
	return g
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.wts != nil }

// HasEdge reports whether (u,v) is an edge, scanning the shorter list.
func (g *Graph) HasEdge(u, v uint32) bool {
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, x := range g.adj[u] {
		if x == v {
			return true
		}
	}
	return false
}

// AddEdge inserts (u,v) with weight w (ignored when unweighted). The caller
// guarantees u ≠ v and that the edge is new.
func (g *Graph) AddEdge(u, v, w uint32) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	if g.wts != nil {
		g.wts[u] = append(g.wts[u], w)
		g.wts[v] = append(g.wts[v], w)
	}
	g.m++
}

// RemoveEdge deletes (u,v), reporting whether it was present.
func (g *Graph) RemoveEdge(u, v uint32) bool {
	if !g.unlink(u, v) {
		return false
	}
	g.unlink(v, u)
	g.m--
	return true
}

func (g *Graph) unlink(u, v uint32) bool {
	l := g.adj[u]
	for i, x := range l {
		if x != v {
			continue
		}
		last := len(l) - 1
		l[i] = l[last]
		g.adj[u] = l[:last]
		if g.wts != nil {
			ws := g.wts[u]
			ws[i] = ws[last]
			g.wts[u] = ws[:last]
		}
		return true
	}
	return false
}

// Clone returns an independent copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]uint32, len(g.adj)), m: g.m}
	for v, l := range g.adj {
		c.adj[v] = append([]uint32(nil), l...)
	}
	if g.wts != nil {
		c.wts = make([][]uint32, len(g.wts))
		for v, l := range g.wts {
			c.wts[v] = append([]uint32(nil), l...)
		}
	}
	return c
}

// Apply performs one update on the graph.
func (g *Graph) Apply(op Op) error {
	switch op.Kind {
	case InsertEdge:
		if op.U == op.V || g.HasEdge(op.U, op.V) {
			return fmt.Errorf("insert (%d,%d): not a new edge", op.U, op.V)
		}
		g.AddEdge(op.U, op.V, op.W)
	case DeleteEdge:
		if !g.RemoveEdge(op.U, op.V) {
			return fmt.Errorf("delete (%d,%d): no such edge", op.U, op.V)
		}
	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
	return nil
}

// WriteEdgeList writes one "u v" (or "u v w") line per edge, u < v, in
// vertex order — the edge-list format hlserver reads with -graph.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var line []byte
	for u, l := range g.adj {
		for i, v := range l {
			if v < uint32(u) {
				continue
			}
			line = strconv.AppendUint(line[:0], uint64(u), 10)
			line = append(line, ' ')
			line = strconv.AppendUint(line, uint64(v), 10)
			if g.wts != nil {
				line = append(line, ' ')
				line = strconv.AppendUint(line, uint64(g.wts[u][i]), 10)
			}
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Searcher answers exact distances on one graph with a bidirectional BFS
// (unweighted) or Dijkstra (weighted). It is the benchmark's ground truth
// and shares no code with the program under test. Not safe for concurrent
// use; give each goroutine its own.
type Searcher struct {
	g       *Graph
	dist    [2][]uint32
	touched []uint32
	front   [2][]uint32
	next    []uint32
	heap    [2]minHeap
}

// NewSearcher returns a searcher over g; it sees later updates to g.
func NewSearcher(g *Graph) *Searcher {
	s := &Searcher{g: g}
	for i := range s.dist {
		s.dist[i] = make([]uint32, g.NumVertices())
		for j := range s.dist[i] {
			s.dist[i][j] = Inf
		}
	}
	return s
}

// Dist returns the exact distance between u and v, or Inf.
func (s *Searcher) Dist(u, v uint32) uint32 {
	if u == v {
		return 0
	}
	defer func() {
		for _, x := range s.touched {
			s.dist[0][x], s.dist[1][x] = Inf, Inf
		}
		s.touched = s.touched[:0]
	}()
	s.dist[0][u], s.dist[1][v] = 0, 0
	s.touched = append(s.touched, u, v)
	if s.g.Weighted() {
		return s.dijkstra(u, v)
	}
	return s.bfs(u, v)
}

func (s *Searcher) bfs(u, v uint32) uint32 {
	s.front[0] = append(s.front[0][:0], u)
	s.front[1] = append(s.front[1][:0], v)
	var depth [2]uint32
	best := uint32(Inf)
	for len(s.front[0]) > 0 && len(s.front[1]) > 0 {
		// Every path of length ≤ depth[0]+depth[1] has been seen as a meet,
		// so no undiscovered path can beat best once best ≤ that + 1.
		if best != Inf && depth[0]+depth[1]+1 >= best {
			break
		}
		side := 0
		if len(s.front[1]) < len(s.front[0]) {
			side = 1
		}
		mine, other := s.dist[side], s.dist[1-side]
		d := depth[side] + 1
		s.next = s.next[:0]
		for _, x := range s.front[side] {
			for _, y := range s.g.adj[x] {
				if mine[y] != Inf {
					continue
				}
				mine[y] = d
				s.touched = append(s.touched, y)
				if o := other[y]; o != Inf && d+o < best {
					best = d + o
				}
				s.next = append(s.next, y)
			}
		}
		s.front[side], s.next = s.next, s.front[side]
		depth[side] = d
	}
	return best
}

func (s *Searcher) dijkstra(u, v uint32) uint32 {
	s.heap[0] = append(s.heap[0][:0], item{u, 0})
	s.heap[1] = append(s.heap[1][:0], item{v, 0})
	best := uint32(Inf)
	for len(s.heap[0]) > 0 && len(s.heap[1]) > 0 {
		// The cheapest unsettled vertices on both sides bound every path
		// not yet found from below.
		if best != Inf && uint64(s.heap[0][0].d)+uint64(s.heap[1][0].d) >= uint64(best) {
			break
		}
		side := 0
		if s.heap[1][0].d < s.heap[0][0].d {
			side = 1
		}
		mine, other := s.dist[side], s.dist[1-side]
		it := s.heap[side].pop()
		if it.d != mine[it.v] {
			continue // stale
		}
		for i, y := range s.g.adj[it.v] {
			nd := it.d + s.g.wts[it.v][i]
			if nd >= mine[y] {
				continue
			}
			if mine[y] == Inf {
				s.touched = append(s.touched, y)
			}
			mine[y] = nd
			s.heap[side].push(item{y, nd})
			if o := other[y]; o != Inf && nd+o < best {
				best = nd + o
			}
		}
	}
	return best
}

type item struct{ v, d uint32 }

// minHeap is a binary heap of items keyed by d.
type minHeap []item

func (h *minHeap) push(it item) {
	*h = append(*h, it)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].d <= a[i].d {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *minHeap) pop() item {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= len(a) {
			break
		}
		c := l
		if r := l + 1; r < len(a) && a[r].d < a[l].d {
			c = r
		}
		if a[i].d <= a[c].d {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}
