package dynhl

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/hcl"
	"repro/internal/testutil"
)

// vertexCase is one variant's fixtures for the vertex-op tests.
type vertexCase struct {
	name   string
	insert func() (variant, error) // a graph to add a vertex to
	arcs   []Arc                   // the vertex's arcs
	edges  func(id uint32) [][2]uint32
	// unknown are arc lists naming a vertex that does not exist.
	unknown [][]Arc
	// delete is a graph to delete a vertex from.
	delete func() (variant, error)
	// fork is a small graph with landmarks 0 and 4, and forkOps ops that a
	// fork of it applies.
	fork    func() (variant, error)
	forkOps []Op
	// path is the path 0–1–…–5 (0→1→…→5 if directed), and rejected arcs
	// of a vertex whose insertion it must reject after the vertex is
	// added, with the error it must report.
	path     func() (variant, error)
	rejected []Arc
	err      string
}

func vertexCases() []vertexCase {
	return []vertexCase{{
		name: "undirected",
		insert: func() (variant, error) {
			return Build(testutil.RandomConnectedGraph(30, 40, 5), Options{Landmarks: 3})
		},
		arcs:    Arcs(0, 7, 13),
		edges:   func(id uint32) [][2]uint32 { return [][2]uint32{{id, 0}, {id, 7}, {id, 13}} },
		unknown: [][]Arc{Arcs(99)},
		delete: func() (variant, error) {
			return Build(testutil.RandomConnectedGraph(30, 60, 9), Options{Landmarks: 3})
		},
		fork: func() (variant, error) {
			g := NewGraph(8)
			for i := uint32(0); i < 7; i++ {
				g.MustAddEdge(i, i+1)
			}
			g.MustAddEdge(0, 4)
			return BuildWithLandmarks(g, []uint32{0, 4}, Options{})
		},
		forkOps: []Op{InsertEdgeOp(1, 6, 0), DeleteEdgeOp(3, 4), InsertVertexOp(Arcs(2)...)},
		path: func() (variant, error) {
			g := NewGraph(6)
			for i := uint32(0); i < 5; i++ {
				g.MustAddEdge(i, i+1)
			}
			return Build(g, Options{Landmarks: 2})
		},
		rejected: Arcs(2, 3, 2),
		err:      "hcl: insert (6,2): graph: edge already exists",
	}, {
		name: "directed",
		insert: func() (variant, error) {
			return BuildDirected(randomDigraph(25, 60, 3), Options{Landmarks: 3})
		},
		arcs:  []Arc{{To: 0}, {To: 7, In: true}, {To: 5}},
		edges: func(id uint32) [][2]uint32 { return [][2]uint32{{id, 0}, {id, 5}, {7, id}} },
		unknown: [][]Arc{
			{{To: 999}},
			{{To: 999, In: true}},
		},
		delete: func() (variant, error) {
			return BuildDirected(randomDigraph(25, 60, 14), Options{Landmarks: 3})
		},
		fork: func() (variant, error) {
			g := NewDigraph(8)
			for i := uint32(0); i < 7; i++ {
				g.MustAddEdge(i, i+1)
			}
			g.MustAddEdge(7, 0) // the cycle keeps everything reachable both ways
			return BuildDirectedWithLandmarks(g, []uint32{0, 4}, Options{})
		},
		forkOps: []Op{InsertEdgeOp(2, 6, 0), DeleteEdgeOp(3, 4), InsertVertexOp(Arc{To: 1}, Arc{To: 5, In: true})},
		path: func() (variant, error) {
			g := NewDigraph(6)
			for i := uint32(0); i < 5; i++ {
				g.MustAddEdge(i, i+1)
			}
			return BuildDirected(g, Options{Landmarks: 2})
		},
		// The out-arcs go first, so the repeated out-arc fails before the
		// repeated in-arc.
		rejected: []Arc{{To: 3, In: true}, {To: 3, In: true}, {To: 2}, {To: 2}},
		err:      "hcl: insert (6,2): graph: edge already exists",
	}, {
		name: "weighted",
		insert: func() (variant, error) {
			return BuildWeighted(randomWeighted(20, 40, 4, 5), Options{Landmarks: 3})
		},
		arcs:    []Arc{{To: 0, W: 2}, {To: 9, W: 1}},
		edges:   func(id uint32) [][2]uint32 { return [][2]uint32{{id, 0}, {id, 9}} },
		unknown: [][]Arc{Arcs(99)},
		delete: func() (variant, error) {
			return BuildWeighted(randomWeighted(25, 50, 4, 8), Options{Landmarks: 3})
		},
		fork: func() (variant, error) {
			g := NewWeightedGraph(8)
			for i := uint32(0); i < 7; i++ {
				g.MustAddEdge(i, i+1, 2)
			}
			g.MustAddEdge(0, 4, 5)
			return BuildWeightedWithLandmarks(g, []uint32{0, 4}, Options{})
		},
		forkOps: []Op{InsertEdgeOp(1, 6, 1), DeleteEdgeOp(3, 4), InsertVertexOp(Arc{To: 2, W: 3})},
		path: func() (variant, error) {
			g := NewWeightedGraph(6)
			for i := uint32(0); i < 5; i++ {
				g.MustAddEdge(i, i+1, 1)
			}
			return BuildWeighted(g, Options{Landmarks: 2})
		},
		rejected: []Arc{{To: 2}, {To: 3, W: Inf}},
		err:      "wgraph: edge (6,3): weight 4294967295 out of range",
	}}
}

// TestInsertVertexAcrossVariants adds a vertex with arcs, then one with
// none, and checks the edges, the labelling against a fresh build and the
// distances to the new vertices, and that unknown neighbours are rejected.
func TestInsertVertexAcrossVariants(t *testing.T) {
	for _, c := range vertexCases() {
		t.Run(c.name, func(t *testing.T) {
			x := build(t, c.insert)
			n := x.NumVertices()
			id, sum, err := x.InsertVertex(c.arcs)
			if err != nil {
				t.Fatalf("InsertVertex: %v", err)
			}
			if int(id) != n {
				t.Errorf("new vertex id: got %d, want %d", id, n)
			}
			if sum.Landmarks != 3 || sum.Affected == 0 {
				t.Errorf("summary %+v: want 3 landmarks and the new vertex affected", sum)
			}
			want := c.edges(id)
			if got := x.incident(id); !sameEdges(got, want) {
				t.Errorf("edges at the new vertex: got %v, want %v", got, want)
			}
			matchesBuild(t, x)
			if err := x.Verify(); err != nil {
				t.Fatal(err)
			}
			for u := uint32(0); int(u) < x.NumVertices(); u++ {
				if got, want := x.Query(id, u), truth(x, id, u); got != want {
					t.Errorf("Query(new,%d): got %d, want %d", u, got, want)
				}
			}

			// A vertex with no arcs is legal, and reaches nothing.
			w, _, err := x.InsertVertex(nil)
			if err != nil {
				t.Fatalf("InsertVertex(nil): %v", err)
			}
			if got := x.Query(w, 0); got != Inf {
				t.Errorf("Query(isolated,0): got %d, want Inf", got)
			}
			for _, arcs := range c.unknown {
				if _, _, err := x.InsertVertex(arcs); err == nil {
					t.Errorf("InsertVertex(%+v): an unknown neighbour must be rejected", arcs)
				}
			}
		})
	}
}

// TestDeleteVertexIsolatesAcrossVariants deletes a vertex with edges and
// checks that it keeps no edge and no label entry and that the labelling
// equals a fresh build; deleting a landmark must fail.
func TestDeleteVertexIsolatesAcrossVariants(t *testing.T) {
	for _, c := range vertexCases() {
		t.Run(c.name, func(t *testing.T) {
			x := build(t, c.delete)
			core := coreOf(x)
			var v uint32
			for v = 0; core.IsLandmark(v) || len(x.incident(v)) == 0; v++ {
			}
			if _, err := x.DeleteVertex(v); err != nil {
				t.Fatal(err)
			}
			if es := x.incident(v); len(es) != 0 {
				t.Errorf("vertex %d still has edges %v", v, es)
			}
			for dir := range dirs(x) {
				if l := core.Label(dir, v); len(l) != 0 {
					t.Errorf("isolated vertex kept entries in direction %d: %v", dir, l)
				}
			}
			matchesBuild(t, x)
			if _, err := x.DeleteVertex(core.Landmarks[0]); err == nil {
				t.Error("deleting a landmark must fail")
			}
		})
	}
}

// TestVertexInsertOnForkIsolation runs edge and vertex ops on a fork and
// checks that the parent's labels, highway and graph stay untouched while
// the fork stays exact.
func TestVertexInsertOnForkIsolation(t *testing.T) {
	for _, c := range vertexCases() {
		t.Run(c.name, func(t *testing.T) {
			x := build(t, c.fork)
			core := coreOf(x)
			snap := func() (ls []hcl.Label, hw []Dist) {
				for dir := range dirs(x) {
					for v := uint32(0); v < 8; v++ {
						ls = append(ls, append(hcl.Label(nil), core.Label(dir, v)...))
					}
				}
				for i := range core.Landmarks {
					hw = append(hw, core.Row(uint16(i))...)
				}
				return ls, hw
			}
			labels, hw := snap()
			edges := x.Stats().Edges

			f := x.fork()
			if _, err := f.Apply(c.forkOps); err != nil {
				t.Fatal(err)
			}
			if gotL, gotHW := snap(); !slices.EqualFunc(gotL, labels, hcl.Label.Equal) || !slices.Equal(gotHW, hw) {
				t.Fatal("the parent's labels or highway changed")
			}
			if st := x.Stats(); st.Edges != edges || st.Vertices != 8 {
				t.Fatalf("parent graph changed: %d edges, %d vertices", st.Edges, st.Vertices)
			}
			if err := x.Verify(); err != nil {
				t.Fatalf("parent no longer verifies: %v", err)
			}
			if err := f.Verify(); err != nil {
				t.Fatalf("fork does not verify: %v", err)
			}
		})
	}
}

// TestRejectedVertexInsertLeavesOracleUnchanged inserts a vertex whose
// arcs fail only once the vertex exists: a repeated neighbour, or a
// weight out of range. The oracle must reject the op whole, with the
// edge's error, and keep its vertices, edges and labels.
func TestRejectedVertexInsertLeavesOracleUnchanged(t *testing.T) {
	for _, c := range vertexCases() {
		t.Run(c.name, func(t *testing.T) {
			x := build(t, c.path)
			var before bytes.Buffer
			if err := x.Save(&before); err != nil {
				t.Fatal(err)
			}
			id, _, err := x.InsertVertex(c.rejected)
			if err == nil || err.Error() != c.err {
				t.Fatalf("InsertVertex(%+v): got %v, want %q", c.rejected, err, c.err)
			}
			if id != 0 {
				t.Errorf("a rejected insert returned id %d", id)
			}
			if st := x.Stats(); st.Vertices != 6 || st.Edges != 5 {
				t.Errorf("after the rejected insert: %d vertices, %d edges; want 6 and 5", st.Vertices, st.Edges)
			}
			var after bytes.Buffer
			if err := x.Save(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Error("the labelling changed")
			}
			if id, _, err := x.InsertVertex(Arcs(2)); err != nil || id != 6 {
				t.Errorf("the next insert: id %d, %v; want 6", id, err)
			}
			if err := x.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// build returns the oracle fixture makes.
func build(t *testing.T, fixture func() (variant, error)) variant {
	t.Helper()
	x, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// coreOf is x's labelling core.
func coreOf(x variant) *hcl.Core {
	switch x := x.(type) {
	case *Index:
		return x.core
	case *DirectedIndex:
		return x.core
	}
	return x.(*WeightedIndex).core
}

// sameEdges reports whether got lists the edges of want, in any order.
func sameEdges(got, want [][2]uint32) bool {
	cmp := func(a, b [2]uint32) int { return slices.Compare(a[:], b[:]) }
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, cmp)
	slices.SortFunc(want, cmp)
	return slices.Equal(got, want)
}

// dirs is the number of label directions of x.
func dirs(x variant) int {
	if _, ok := x.(*DirectedIndex); ok {
		return 2
	}
	return 1
}

// matchesBuild checks x's labelling against a fresh build over a copy of
// its graph with the same landmarks.
func matchesBuild(t *testing.T, x variant) {
	t.Helper()
	var err error
	switch x := x.(type) {
	case *Index:
		fresh := build(t, func() (variant, error) { return BuildWithLandmarks(x.Graph().Clone(), x.Landmarks(), Options{}) })
		err = x.core.EqualLabels(fresh.(*Index).core)
	case *DirectedIndex:
		fresh := build(t, func() (variant, error) {
			return BuildDirectedWithLandmarks(x.Graph().Clone(), x.Landmarks(), Options{})
		})
		err = x.core.EqualLabels(fresh.(*DirectedIndex).core)
	case *WeightedIndex:
		fresh := build(t, func() (variant, error) {
			return BuildWeightedWithLandmarks(x.Graph().Clone(), x.Landmarks(), Options{})
		})
		err = x.core.EqualLabels(fresh.(*WeightedIndex).core)
	}
	if err != nil {
		t.Fatalf("labelling differs from a fresh build: %v", err)
	}
}

// truth is the ground-truth distance from u to v in x's graph.
func truth(x variant, u, v uint32) Dist {
	switch x := x.(type) {
	case *Index:
		return bfs.Dist(x.Graph(), u, v)
	case *DirectedIndex:
		return x.Graph().Dist(u, v)
	}
	return x.(*WeightedIndex).Graph().Dist(u, v)
}

// randomDigraph has n vertices and about m random arcs.
func randomDigraph(n, m int, seed int64) *Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := NewDigraph(n)
	for range n {
		g.AddVertex()
	}
	for range m {
		if u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n)); u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// randomWeighted has n vertices and about m random edges of weights 1 to
// maxW.
func randomWeighted(n, m int, maxW Dist, seed int64) *WeightedGraph {
	rng := rand.New(rand.NewSource(seed))
	g := NewWeightedGraph(n)
	for range n {
		g.AddVertex()
	}
	for range m {
		if u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n)); u != v {
			g.AddEdge(u, v, 1+Dist(rng.Intn(int(maxW))))
		}
	}
	return g
}
