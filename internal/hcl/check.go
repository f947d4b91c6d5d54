package hcl

import (
	"fmt"

	"repro/internal/graph"
)

// The validity checks of the three variants' updates. Each variant's
// method runs them before any edit, and batch validation runs them on a
// view of the graph with the batch's earlier edits applied, so a batch is
// judged by exactly the checks its repair would run. An edge is an
// ordered pair on a directed g.

// CheckInsert is the check of an edge insertion: (a,b) must join two
// distinct vertices of g and not be an edge yet.
func CheckInsert(g graph.EdgeSet, a, b uint32) error {
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return fmt.Errorf("hcl: insert (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return fmt.Errorf("hcl: insert (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if g.HasEdge(a, b) {
		return fmt.Errorf("hcl: insert (%d,%d): %w", a, b, graph.ErrEdgeExists)
	}
	return nil
}

// CheckNeighbors is the check of a vertex insertion's neighbour lists:
// every neighbour must be a vertex of g. The edges to the new vertex are
// then checked one by one, by CheckInsert.
func CheckNeighbors[A Arc](g graph.EdgeSet, lists ...[]A) error {
	for _, l := range lists {
		for _, a := range l {
			if !g.HasVertex(to(a)) {
				return fmt.Errorf("hcl: insert vertex: neighbour %d: %w", to(a), graph.ErrVertexUnknown)
			}
		}
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
