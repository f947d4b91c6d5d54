package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/cow"
)

// EdgeList is a parsed edge-list file: edge i joins U[i] and V[i], with
// weight W[i] on a weighted list, and the graph has N vertices.
type EdgeList struct {
	N    int
	U, V []uint32
	W    []Dist
}

// Edge returns the endpoints of edge i, in file order.
func (l *EdgeList) Edge(i int) (uint32, uint32) { return l.U[i], l.V[i] }

// ParseEdgeList parses the whitespace-separated edge-list format shared by
// the graph variants: one "u v [w]" line per edge, where lines that are
// empty or start with '#' or '%' are skipped (the comment conventions of
// SNAP and KONECT dumps) and self-loops are dropped. Fields past the ones
// read are ignored. On a weighted list the third field is a weight in
// [1, Inf); a missing one means 1. A "# vertices=N" comment, the header
// WriteEdgeList writes, keeps trailing isolated vertices: the list has
// max(N, largest kept endpoint + 1) vertices. name prefixes errors
// ("graph", "digraph", "wgraph"), which carry the line number. Lines of
// the common shape are parsed in one pass without allocating (plainLine).
func ParseEdgeList(r io.Reader, name string, weighted bool) (*EdgeList, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	l := &EdgeList{}
	for line := 1; sc.Scan(); line++ {
		u, v, w, edge := plainLine(sc.Bytes(), weighted)
		if !edge {
			var err error
			if u, v, w, edge, err = l.otherLine(sc.Bytes(), weighted); err != nil {
				return nil, fmt.Errorf("%s: line %d: %w", name, line, err)
			}
		}
		if edge && u != v {
			if weighted {
				l.W = append(l.W, w)
			}
			l.U, l.V = append(l.U, u), append(l.V, v)
			l.N = max(l.N, int(max(u, v))+1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: reading edge list: %w", name, err)
	}
	return l, nil
}

// plainLine parses the common line shape — "u v", or "u v w" on a weighted
// list, as digits separated by spaces or tabs — in one pass. It reports
// false for any other line, valid or not, and for a weight out of range.
func plainLine(b []byte, weighted bool) (u, v, w uint32, ok bool) {
	i := 0
	if u, i, ok = digits(b, i); !ok {
		return
	}
	if v, i, ok = digits(b, blanks(b, i, 1)); !ok {
		return
	}
	w, j := Dist(1), blanks(b, i, 0)
	if weighted && j > i && j < len(b) {
		if w, j, ok = digits(b, j); !ok || w == 0 || w == Inf {
			return 0, 0, 0, false
		}
		j = blanks(b, j, 0)
	}
	return u, v, w, j == len(b)
}

// otherLine parses a line plainLine refused, split by bytes.Fields: a
// blank line, a comment, which may be the vertex-count header, or an edge
// line of another shape. It reports whether the line is an edge.
func (l *EdgeList) otherLine(b []byte, weighted bool) (u, v, w uint32, edge bool, err error) {
	f := bytes.Fields(b)
	switch {
	case len(f) == 0 || f[0][0] == '%':
		return
	case f[0][0] == '#':
		head := f[0][1:]
		if len(head) == 0 && len(f) > 1 {
			head = f[1]
		}
		if n, ok := bytes.CutPrefix(head, []byte("vertices=")); ok {
			if n, ok := number(n); ok {
				l.N = max(l.N, int(n))
			}
		}
		return
	case len(f) < 2:
		err = fmt.Errorf("want at least two fields, got %q", bytes.TrimSpace(b))
		return
	}
	if u, err = vertex(f[0]); err != nil {
		return
	}
	if v, err = vertex(f[1]); err != nil || u == v {
		return
	}
	w = 1
	if weighted && len(f) > 2 {
		var ok bool
		if w, ok = number(f[2]); !ok || w == 0 {
			err = fmt.Errorf("bad weight %q", f[2])
		} else if w == Inf {
			err = fmt.Errorf("weight %d out of range", w)
		}
	}
	return u, v, w, err == nil, err
}

// digits parses the decimal number that starts b[i:] and ends at a blank or
// the end of b, returning it and the index past it. It accepts what
// strconv.ParseUint(s, 10, 32) accepts.
func digits(b []byte, i int) (uint32, int, bool) {
	start := i
	var x uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if x = x*10 + uint64(b[i]-'0'); x > math.MaxUint32 {
			return 0, i, false
		}
	}
	return uint32(x), i, i > start && (i == len(b) || b[i] == ' ' || b[i] == '\t' || b[i] == '\r')
}

// blanks returns the index past the spaces, tabs and carriage returns at
// b[i:], or len(b)+1 — past any line — when there are fewer than min.
func blanks(b []byte, i, min int) int {
	j := i
	for j < len(b) && (b[j] == ' ' || b[j] == '\t' || b[j] == '\r') {
		j++
	}
	if j-i < min {
		return len(b) + 1
	}
	return j
}

// number parses a field that is a decimal number.
func number(f []byte) (uint32, bool) {
	x, _, ok := digits(f, 0)
	return x, ok
}

// vertex parses a vertex id field.
func vertex(f []byte) (uint32, error) {
	if v, ok := number(f); ok {
		return v, nil
	}
	_, err := strconv.ParseUint(string(f), 10, 32)
	return 0, fmt.Errorf("bad vertex %q: %w", f, err)
}

// ReadEdgeList parses a whitespace-separated edge list, one "u v" pair per
// line, in the ParseEdgeList format. Duplicate edges, in either
// orientation, and self-loops are dropped, matching how the paper treats
// its inputs as simple undirected graphs; adjacency order is the order
// AddEdge calls over the lines would give.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	l, err := ParseEdgeList(r, "graph", false)
	if err != nil {
		return nil, err
	}
	off, all, _, m, err := Rows(l.N, len(l.U), l.Edge, nil, true, false)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return &Graph{adj: cow.FromCSR(off, all, true), edges: uint64(m)}, nil
}

// WriteEdgeList writes the graph as a "u v" edge list with a header comment,
// the inverse of ReadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vertices=%d edges=%d\n", g.NumVertices(), g.NumEdges())
	var err error
	g.Edges(func(u, v uint32) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return fmt.Errorf("graph: writing edge list: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: writing edge list: %w", err)
	}
	return nil
}
