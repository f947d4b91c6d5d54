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
	lists, wts, m, err := graph.Rows(l.N, len(l.U), l.Edge, l.W, true, false)
	if err != nil {
		return nil, fmt.Errorf("wgraph: %w", err)
	}
	// Zip each list with its weights into one slab of arcs.
	arcs := make([]Arc, len(wts))
	adj := cow.Make[Arc](l.N)
	at := 0
	for v := uint32(0); int(v) < l.N; v++ {
		row := lists.Row(v)
		if len(row) == 0 {
			continue
		}
		for j, to := range row {
			arcs[at+j] = Arc{To: to, W: wts[at+j]}
		}
		*adj.Mut(v) = arcs[at : at+len(row) : at+len(row)]
		at += len(row)
	}
	return &Graph{adj: adj, edges: uint64(m)}, nil
}
