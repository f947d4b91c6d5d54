package wgraph

import (
	"fmt"
	"io"

	"repro/internal/cow"
	"repro/internal/graph"
)

// ReadEdgeList parses a whitespace-separated weighted edge list in the
// graph.ParseEdgeList format: one "u v w" triple per line with weight
// w ≥ 1; a missing third field means weight 1, so plain unweighted edge
// lists load too. Duplicate edges, in either orientation, and self-loops
// are dropped; a repeated edge keeps the weight of its first line.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	l, err := graph.ParseEdgeList(r, "wgraph", true)
	if err != nil {
		return nil, err
	}
	off, to, wts, m, err := graph.Rows(l.N, len(l.U), l.Edge, l.W, true, false)
	if err != nil {
		return nil, fmt.Errorf("wgraph: %w", err)
	}
	// Zip the lists with their weights into one slab of arcs.
	arcs := make([]Arc, len(to))
	for j := range arcs {
		arcs[j] = Arc{To: to[j], W: wts[j]}
	}
	return &Graph{adj: cow.FromCSR(off, arcs, true), edges: uint64(m)}, nil
}
