package dynhl

import (
	"bufio"
	"bytes"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/wgraph"
)

// refEdgeLines is the line parse the edge-list loaders ran before they
// parsed into endpoint arrays — strings.Fields over every trimmed line —
// plus the vertex-count header. It calls add for every edge line that is
// not a self-loop, with the fields past the endpoints, and returns the
// vertex count the headers ask for.
func refEdgeLines(data []byte, add func(u, v uint32, extra []string) error) (int, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	n := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '%' {
			continue
		}
		if text[0] == '#' {
			if f := strings.Fields(text[1:]); len(f) > 0 && strings.HasPrefix(f[0], "vertices=") {
				if h, err := strconv.ParseUint(strings.TrimPrefix(f[0], "vertices="), 10, 32); err == nil {
					n = max(n, int(h))
				}
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return 0, errors.New("short line")
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return 0, err
		}
		if u == v {
			continue
		}
		if err := add(uint32(u), uint32(v), fields[2:]); err != nil {
			return 0, err
		}
	}
	return n, sc.Err()
}

// refGraph, refDigraph and refWeighted load an edge list the way the
// loaders did before: one AddEdge per line, vertices created as needed.
func refGraph(data []byte) (*graph.Graph, error) {
	g := graph.New(0)
	n, err := refEdgeLines(data, func(u, v uint32, _ []string) error {
		g.EnsureVertex(max(u, v))
		_, err := g.AddEdge(u, v)
		return err
	})
	if n > 0 {
		g.EnsureVertex(uint32(n - 1))
	}
	return g, err
}

func refDigraph(data []byte) (*digraph.Digraph, error) {
	g := digraph.New(0)
	grow := func(n int) {
		for g.NumVertices() < n {
			g.AddVertex()
		}
	}
	n, err := refEdgeLines(data, func(u, v uint32, _ []string) error {
		grow(int(max(u, v)) + 1)
		_, err := g.AddEdge(u, v)
		return err
	})
	grow(n)
	return g, err
}

func refWeighted(data []byte) (*wgraph.Graph, error) {
	g := wgraph.New(0)
	grow := func(n int) {
		for g.NumVertices() < n {
			g.AddVertex()
		}
	}
	n, err := refEdgeLines(data, func(u, v uint32, extra []string) error {
		w := uint64(1)
		if len(extra) > 0 {
			var err error
			if w, err = strconv.ParseUint(extra[0], 10, 32); err != nil || w == 0 {
				return errors.New("bad weight")
			}
		}
		grow(int(max(u, v)) + 1)
		_, err := g.AddEdge(u, v, graph.Dist(w))
		return err
	})
	grow(n)
	return g, err
}

// sameRows compares two adjacency tables row by row.
func sameRows[T comparable](t *testing.T, what string, n int, got, want func(uint32) []T) {
	t.Helper()
	for v := uint32(0); int(v) < n; v++ {
		if !slices.Equal(got(v), want(v)) {
			t.Fatalf("%s: vertex %d holds %v, want %v", what, v, got(v), want(v))
		}
	}
}

// FuzzReadEdgeList feeds arbitrary bytes to the edge-list loaders of all
// three variants and checks each against one AddEdge per line: the same
// inputs fail, and the rest load the same vertex and edge counts, the
// same adjacency in the same order and, on weighted lists, the weight of
// each edge's first line.
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"0 1\n1 0\n0 1\n2 2\n# a comment\n% another\n1 2 5\n2 1 3\n",
		"# vertices=10 edges=2\n0 1\n3 4\n",
		"#vertices=3\n",
		"0 1 7\n1 0 2\n3 3 0\n0 2 0\n",
		"  5\t6 \r\n\n6 5 x\n",
		"1 2\n3\n",
		"0 1 4294967295\n",
		"0 1 2\n2 3\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Skip lists naming more vertices than the loaders can be
		// compared over quickly; the scan allocates nothing.
		top := uint32(0)
		n, _ := refEdgeLines(data, func(u, v uint32, _ []string) error { top = max(top, u, v); return nil })
		if max(n, int(top)+1) > 1<<14 {
			t.Skip()
		}
		in := func() *bytes.Reader { return bytes.NewReader(data) }

		g, err := graph.ReadEdgeList(in())
		want, werr := refGraph(data)
		if (err != nil) != (werr != nil) {
			t.Fatalf("graph: error %v, AddEdge reference %v", err, werr)
		}
		if err == nil {
			if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() {
				t.Fatalf("graph: %d vertices, %d edges; want %d, %d", g.NumVertices(), g.NumEdges(), want.NumVertices(), want.NumEdges())
			}
			sameRows(t, "graph", g.NumVertices(), g.Neighbors, want.Neighbors)
		}

		dg, err := digraph.ReadEdgeList(in())
		dwant, werr := refDigraph(data)
		if (err != nil) != (werr != nil) {
			t.Fatalf("digraph: error %v, AddEdge reference %v", err, werr)
		}
		if err == nil {
			if dg.NumVertices() != dwant.NumVertices() || dg.NumEdges() != dwant.NumEdges() {
				t.Fatalf("digraph: %d vertices, %d arcs; want %d, %d", dg.NumVertices(), dg.NumEdges(), dwant.NumVertices(), dwant.NumEdges())
			}
			sameRows(t, "digraph out", dg.NumVertices(), dg.Out, dwant.Out)
			sameRows(t, "digraph in", dg.NumVertices(), dg.In, dwant.In)
		}

		wg, err := wgraph.ReadEdgeList(in())
		wwant, werr := refWeighted(data)
		if (err != nil) != (werr != nil) {
			t.Fatalf("wgraph: error %v, AddEdge reference %v", err, werr)
		}
		if err == nil {
			if wg.NumVertices() != wwant.NumVertices() || wg.NumEdges() != wwant.NumEdges() {
				t.Fatalf("wgraph: %d vertices, %d edges; want %d, %d", wg.NumVertices(), wg.NumEdges(), wwant.NumVertices(), wwant.NumEdges())
			}
			sameRows(t, "wgraph", wg.NumVertices(), wg.Neighbors, wwant.Neighbors)
		}
	})
}
