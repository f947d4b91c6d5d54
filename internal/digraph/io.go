package digraph

import (
	"fmt"
	"io"

	"repro/internal/cow"
	"repro/internal/graph"
)

// ReadEdgeList parses a whitespace-separated arc list, one "u v" pair per
// line meaning the directed edge u→v, in the graph.ParseEdgeList format.
// Duplicate arcs and self-loops are dropped; both adjacency directions
// hold their arcs in file order, as AddEdge calls would.
func ReadEdgeList(r io.Reader) (*Digraph, error) {
	l, err := graph.ParseEdgeList(r, "digraph", false)
	if err != nil {
		return nil, err
	}
	m := len(l.U)
	outOff, out, _, arcs, err := graph.Rows(l.N, m, l.Edge, nil, false, false)
	if err != nil {
		return nil, fmt.Errorf("digraph: %w", err)
	}
	inOff, in, _, _, err := graph.Rows(l.N, m, func(i int) (uint32, uint32) { return l.V[i], l.U[i] }, nil, false, false)
	if err != nil {
		return nil, fmt.Errorf("digraph: %w", err)
	}
	return &Digraph{out: cow.FromCSR(outOff, out, true), in: cow.FromCSR(inOff, in, true), edges: uint64(arcs)}, nil
}
