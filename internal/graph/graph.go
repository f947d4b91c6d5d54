// Package graph implements the dynamic graph substrate for the IncHL+
// reproduction: an undirected, unweighted graph stored as adjacency lists
// that supports online vertex and edge insertions, the update model of
// Farhan & Wang (EDBT 2021).
package graph

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cow"
)

// Dist is a shortest-path distance in hops. Unreachable pairs have distance
// Inf; all distance arithmetic in this repository saturates at Inf.
type Dist = uint32

// Inf is the distance between disconnected vertices.
const Inf Dist = ^Dist(0)

// AddDist returns a+b, saturating at Inf.
func AddDist(a, b Dist) Dist {
	if a == Inf || b == Inf {
		return Inf
	}
	if c := a + b; c >= a { // no wrap
		return c
	}
	return Inf
}

// EdgeSet is what the update validity checks of the labelling packages
// read: a graph, or a batch validator's view of one with the batch's edits
// applied. HasEdge is false when either endpoint is not a vertex.
type EdgeSet interface {
	HasVertex(v uint32) bool
	HasEdge(u, v uint32) bool
}

// Errors reported by mutating operations. They are shared as sentinels by
// the directed and weighted substrates too, so every layer up to the HTTP
// service can classify failures with errors.Is instead of string matching.
var (
	ErrSelfLoop      = errors.New("graph: self-loops are not supported")
	ErrVertexUnknown = errors.New("graph: vertex does not exist")
	ErrEdgeUnknown   = errors.New("graph: edge does not exist")
	ErrEdgeExists    = errors.New("graph: edge already exists")
)

// Graph is an undirected, unweighted dynamic graph over vertices
// 0..NumVertices-1. The zero value is an empty graph ready to use.
//
// Parallel edges are rejected (AddEdge reports false), matching the paper's
// edge-insertion model where (a,b) ∉ E.
type Graph struct {
	adj   cow.Table[uint32] // copy-on-write across forks (see Fork)
	edges uint64
}

// New returns an empty graph. The vertex-count hint n is unused: adjacency
// grows one chunk of vertices at a time.
func New(n int) *Graph { return &Graph{} }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.adj.Len() }

// NumEdges returns the number of (undirected) edges.
func (g *Graph) NumEdges() uint64 { return g.edges }

// AddVertex appends a new isolated vertex and returns its id.
func (g *Graph) AddVertex() uint32 {
	g.adj.Grow(g.adj.Len() + 1)
	return uint32(g.adj.Len() - 1)
}

// EnsureVertex grows the graph so that vertex v exists.
func (g *Graph) EnsureVertex(v uint32) { g.adj.Grow(int(v) + 1) }

// HasVertex reports whether v is a vertex of the graph.
func (g *Graph) HasVertex(v uint32) bool { return int(v) < g.adj.Len() }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v uint32) int { return len(g.adj.Row(v)) }

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified; it may be invalidated by AddEdge.
func (g *Graph) Neighbors(v uint32) []uint32 { return g.adj.Row(v) }

// Adj returns the adjacency table whose row v is Neighbors(v), for the
// searches of internal/bfs. It is owned by the graph and must not be
// modified.
func (g *Graph) Adj() *cow.Table[uint32] { return &g.adj }

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v uint32) bool {
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return false
	}
	a, b := g.adj.Row(u), v
	// Scan the shorter list.
	if bv := g.adj.Row(v); len(a) > len(bv) {
		a, b = bv, u
	}
	for _, w := range a {
		if w == b {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge (u,v). It reports whether the edge was
// new. It returns ErrSelfLoop for u == v and ErrVertexUnknown when either
// endpoint does not exist.
func (g *Graph) AddEdge(u, v uint32) (bool, error) {
	if u == v {
		return false, ErrSelfLoop
	}
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return false, fmt.Errorf("%w: edge (%d,%d) with %d vertices", ErrVertexUnknown, u, v, g.NumVertices())
	}
	if g.HasEdge(u, v) {
		return false, nil
	}
	g.adj.Append(u, v)
	g.adj.Append(v, u)
	g.edges++
	return true, nil
}

// RemoveEdge deletes the undirected edge (u,v). It returns ErrSelfLoop for
// u == v, ErrVertexUnknown when either endpoint does not exist and
// ErrEdgeUnknown when the edge is not present.
func (g *Graph) RemoveEdge(u, v uint32) error {
	if u == v {
		return ErrSelfLoop
	}
	if !g.HasVertex(u) || !g.HasVertex(v) {
		return fmt.Errorf("%w: edge (%d,%d) with %d vertices", ErrVertexUnknown, u, v, g.NumVertices())
	}
	if !g.HasEdge(u, v) {
		return fmt.Errorf("%w: (%d,%d)", ErrEdgeUnknown, u, v)
	}
	g.adj.Remove(u, slices.Index(g.adj.Row(u), v))
	g.adj.Remove(v, slices.Index(g.adj.Row(v), u))
	g.edges--
	return nil
}

// MustAddEdge inserts (u,v), growing the vertex set as needed, and panics on
// a self-loop. It is a convenience for generators and tests.
func (g *Graph) MustAddEdge(u, v uint32) bool {
	g.EnsureVertex(u)
	g.EnsureVertex(v)
	ok, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return ok
}

// FromEdges returns the graph on n vertices whose edges are edge(0), …,
// edge(m-1), each listed once. It reports an endpoint out of range, a
// self-loop or a repeated edge. The adjacency lists hold their neighbours
// in the order m AddEdge calls would give them, but are laid out by Rows at
// their final lengths, one chunk base per 512 vertices: no list grows and
// no insertion scans for a duplicate, which is what makes a checkpoint's
// graph cheap to load.
func FromEdges(n, m int, edge func(i int) (u, v uint32)) (*Graph, error) {
	off, all, _, edges, err := Rows(n, m, edge, nil, true, true)
	if err != nil {
		return nil, err
	}
	return &Graph{adj: cow.FromCSR(off, all, true), edges: uint64(edges)}, nil
}

// Fork returns a copy-on-write copy of the graph. It copies only the chunk
// directory of the adjacency table; the fork's first write to a chunk of
// 512 vertices copies that chunk's span table and overflow (see
// internal/cow). Mutating the fork therefore never writes to memory
// reachable from g, which is what lets an immutable published snapshot
// keep answering queries while its fork absorbs a batch of updates.
//
// The fork assumes g itself is frozen from the moment of the fork: callers
// must not mutate g afterwards (snapshot discipline — only the newest fork
// is ever written).
func (g *Graph) Fork() *Graph {
	return &Graph{adj: g.adj.Fork(), edges: g.edges}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	return &Graph{adj: g.adj.Clone(), edges: g.edges}
}

// Edges calls fn for every undirected edge exactly once, with u < v.
func (g *Graph) Edges(fn func(u, v uint32)) {
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.adj.Row(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// MaxDegreeVertex returns the vertex with the largest degree, breaking ties
// by smaller id. It returns 0 for an empty graph.
func (g *Graph) MaxDegreeVertex() uint32 {
	best, bestDeg := uint32(0), -1
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}
