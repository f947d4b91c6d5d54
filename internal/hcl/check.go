package hcl

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/wgraph"
)

// The validity checks of the three variants' updates. The edge updates
// (update.go) run CheckInsert and CheckDelete before any edit. The
// oracles' validity pre-pass runs all four on a view of the graph with a
// batch's earlier edits applied, and every vertex op runs through it
// before it edits, so an op is judged by exactly the checks its repair
// would run. An edge is an ordered pair on a directed g.

// CheckInsert is the check of an edge insertion: (a,b) must join two
// distinct vertices of g and not be an edge yet, and its length w must be
// one a graph can hold (wgraph.CheckArc: 1 on the unit-weight graphs).
func CheckInsert(g graph.EdgeSet, a, b uint32, w graph.Dist) error {
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return fmt.Errorf("hcl: insert (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return fmt.Errorf("hcl: insert (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if g.HasEdge(a, b) {
		return fmt.Errorf("hcl: insert (%d,%d): %w", a, b, graph.ErrEdgeExists)
	}
	return wgraph.CheckArc(a, b, w)
}

// CheckNeighbor is the check of a vertex insertion's neighbour v: it
// must be a vertex of g. The edges to the new vertex are then checked one
// by one, by CheckInsert.
func CheckNeighbor(g graph.EdgeSet, v uint32) error {
	if !g.HasVertex(v) {
		return fmt.Errorf("hcl: insert vertex: neighbour %d: %w", v, graph.ErrVertexUnknown)
	}
	return nil
}

// CheckDelete is the check of an edge deletion: (a,b) must be an edge of
// g.
func CheckDelete(g graph.EdgeSet, a, b uint32) error {
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return fmt.Errorf("hcl: delete (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return fmt.Errorf("hcl: delete (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if !g.HasEdge(a, b) {
		return fmt.Errorf("hcl: delete (%d,%d): %w", a, b, graph.ErrEdgeUnknown)
	}
	return nil
}

// CheckDeleteVertex is the check of a vertex deletion: v must be a vertex
// of g and not one of c's landmarks.
func CheckDeleteVertex(g graph.EdgeSet, c *Core, v uint32) error {
	if !g.HasVertex(v) {
		return fmt.Errorf("hcl: delete vertex %d: %w", v, graph.ErrVertexUnknown)
	}
	if c.IsLandmark(v) {
		return fmt.Errorf("hcl: delete vertex %d: cannot delete a landmark", v)
	}
	return nil
}
