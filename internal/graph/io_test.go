package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# a comment
% another comment

0 1
1 2 extra-ignored
2 0
2 2
0 1
5 1
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumVertices() != 6 {
		t.Errorf("NumVertices: got %d, want 6", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges: got %d, want 4 (self-loop and duplicate dropped)", g.NumEdges())
	}
	if !g.HasEdge(5, 1) {
		t.Error("edge (5,1) missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0", "x 1", "1 y", "1 99999999999999999999"} {
		if _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q should fail", bad)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := New(5)
	for i := 0; i < 5; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(1, 2)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if back.NumEdges() != g.NumEdges() || back.NumVertices() != g.NumVertices() {
		t.Fatalf("round trip mismatch: %d/%d vs %d/%d",
			back.NumVertices(), back.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	g.Edges(func(u, v uint32) {
		if !back.HasEdge(u, v) {
			t.Errorf("edge (%d,%d) lost in round trip", u, v)
		}
	})
}

// TestRoundTripKeepsIsolatedVertices pins that the vertex-count header
// WriteEdgeList writes brings back vertices past the largest endpoint,
// which no edge line names.
func TestRoundTripKeepsIsolatedVertices(t *testing.T) {
	g := New(4)
	g.EnsureVertex(3)
	g.MustAddEdge(0, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != 4 || back.NumEdges() != 1 || !back.HasEdge(0, 1) {
		t.Fatalf("read back %d vertices, %d edges; want 4, 1", back.NumVertices(), back.NumEdges())
	}
}

// TestVertexCountHeader pins the header rule: the list has max(N, largest
// endpoint + 1) vertices, in either spelling of the header, and a comment
// that is not a well-formed header is only a comment.
func TestVertexCountHeader(t *testing.T) {
	for in, want := range map[string]int{
		"# vertices=6 edges=1\n0 1\n": 6,
		"#vertices=6\n0 1\n":          6,
		"0 1\n# vertices=6\n":         6,
		"# vertices=2\n0 7\n":         8,
		"% vertices=6\n0 1\n":         2,
		"# vertices=x\n0 1\n":         2,
		"# edges=1 vertices=6\n0 1\n": 2,
		"# vertices=3\n":              3,
		"# vertices=9\n4 4\n":         9,
	} {
		l, err := ParseEdgeList(strings.NewReader(in), "graph", false)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if l.N != want {
			t.Errorf("%q: %d vertices, want %d", in, l.N, want)
		}
	}
}

// TestParseEdgeListShapes pins that the one-pass parse of plain lines and
// the general field split agree: tabs, carriage returns, trailing blanks,
// leading blanks, extra fields and Unicode spaces all parse alike.
func TestParseEdgeListShapes(t *testing.T) {
	in := "0 1\n1\t2\r\n2 3  \n  3 4\n4 5 extra\n5 6\n6\u00a07\u20038\n"
	for _, weighted := range []bool{false, true} {
		if weighted {
			in = strings.Replace(in, "4 5 extra", "4 5", 1)
		}
		l, err := ParseEdgeList(strings.NewReader(in), "graph", weighted)
		if err != nil {
			t.Fatalf("weighted=%v: %v", weighted, err)
		}
		if l.N != 8 || len(l.U) != 7 {
			t.Fatalf("weighted=%v: %d vertices, %d edges; want 8, 7", weighted, l.N, len(l.U))
		}
		for i := range l.U {
			if l.U[i] != uint32(i) || l.V[i] != uint32(i+1) {
				t.Fatalf("weighted=%v: edge %d is (%d,%d)", weighted, i, l.U[i], l.V[i])
			}
		}
		if weighted && (l.W[6] != 8 || l.W[0] != 1) {
			t.Fatalf("weights %v", l.W)
		}
	}
	for _, bad := range []string{"0 1 0\n", "0 1 4294967295\n", "0 1 x\n", "0 1 -3\n"} {
		if _, err := ParseEdgeList(strings.NewReader(bad), "wgraph", true); err == nil {
			t.Errorf("weighted %q should fail", bad)
		}
	}
}
