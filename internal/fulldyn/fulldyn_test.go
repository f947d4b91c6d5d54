package fulldyn

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/testutil"
)

func TestBuildQueryMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := testutil.RandomGraph(50, 90, seed)
		idx, err := Build(g, landmark.ByDegree(g, 4))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		oracle := testutil.AllPairsOracle(g)
		for u := 0; u < 50; u++ {
			for v := 0; v < 50; v++ {
				if got := idx.Query(uint32(u), uint32(v)); got != oracle[u][v] {
					t.Fatalf("seed %d: Query(%d,%d): got %d, want %d", seed, u, v, got, oracle[u][v])
				}
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := testutil.RandomConnectedGraph(5, 3, 1)
	if _, err := Build(g, nil); err == nil {
		t.Error("no landmarks must fail")
	}
	if _, err := Build(g, []uint32{77}); err == nil {
		t.Error("unknown landmark must fail")
	}
}

func TestInsertEdgeTreesStayExact(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := testutil.RandomGraph(40, 60, 20+seed)
		lm := landmark.ByDegree(g, 4)
		idx, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range testutil.NonEdges(g, 25, seed) {
			if err := idx.InsertEdge(e[0], e[1]); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
			if err := idx.VerifyTrees(); err != nil {
				t.Fatalf("seed %d insert %d: %v", seed, i, err)
			}
		}
	}
}

func TestQueriesExactAfterInsertStream(t *testing.T) {
	g := testutil.RandomGraph(45, 70, 77)
	idx, err := Build(g, landmark.ByDegree(g, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range testutil.NonEdges(g, 30, 11) {
		if err := idx.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	oracle := testutil.AllPairsOracle(g)
	for u := 0; u < 45; u++ {
		for v := 0; v < 45; v++ {
			if got := idx.Query(uint32(u), uint32(v)); got != oracle[u][v] {
				t.Fatalf("Query(%d,%d): got %d, want %d", u, v, got, oracle[u][v])
			}
		}
	}
}

func TestInsertVertex(t *testing.T) {
	g := testutil.RandomConnectedGraph(20, 25, 6)
	lm := landmark.ByDegree(g, 3)
	idx, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	v, err := idx.InsertVertex([]uint32{0, 5})
	if err != nil {
		t.Fatalf("InsertVertex: %v", err)
	}
	for r, lv := range lm {
		want := bfs.Dist(g, lv, v)
		if idx.Dist[r][v] != want {
			t.Fatalf("tree %d at new vertex: got %d, want %d", r, idx.Dist[r][v], want)
		}
	}
}

func TestInsertEdgeErrors(t *testing.T) {
	g := testutil.RandomConnectedGraph(10, 5, 3)
	idx, err := Build(g, landmark.ByDegree(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertEdge(1, 1); err == nil {
		t.Error("self-loop must be rejected")
	}
	if err := idx.InsertEdge(0, 42); err == nil {
		t.Error("unknown vertex must be rejected")
	}
	e := testutil.NonEdges(g, 1, 9)[0]
	if err := idx.InsertEdge(e[0], e[1]); err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertEdge(e[0], e[1]); err == nil {
		t.Error("duplicate must be rejected")
	}
}

func TestBytes(t *testing.T) {
	g := testutil.RandomConnectedGraph(30, 40, 2)
	idx, err := Build(g, landmark.ByDegree(g, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Bytes(); got < 4*30*4 {
		t.Errorf("Bytes: got %d, want at least %d (distances) plus parent storage", got, 4*30*4)
	}
}

func TestQuickComponentMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Two random components, then a bridging insertion.
		g := graph.New(30)
		for i := 0; i < 30; i++ {
			g.AddVertex()
		}
		for i := 0; i < 25; i++ {
			u, v := uint32(rng.Intn(15)), uint32(rng.Intn(15))
			if u != v {
				_, _ = g.AddEdge(u, v)
			}
			u, v = uint32(15+rng.Intn(15)), uint32(15+rng.Intn(15))
			if u != v {
				_, _ = g.AddEdge(u, v)
			}
		}
		idx, err := Build(g, landmark.ByDegree(g, 3))
		if err != nil {
			return false
		}
		if err := idx.InsertEdge(3, 20); err != nil {
			return false
		}
		for r, lv := range idx.Landmarks {
			want := bfs.Distances(g, lv)
			for v := 0; v < 30; v++ {
				if idx.Dist[r][v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteEdgeTreesStayExact(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(40, 80, 60+seed)
		lm := landmark.ByDegree(g, 4)
		idx, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			var edges [][2]uint32
			g.Edges(func(a, b uint32) { edges = append(edges, [2]uint32{a, b}) })
			if len(edges) == 0 {
				break
			}
			e := edges[rng.Intn(len(edges))]
			if err := idx.DeleteEdge(e[0], e[1]); err != nil {
				t.Fatalf("seed %d delete %d (%d,%d): %v", seed, i, e[0], e[1], err)
			}
			if err := idx.VerifyTrees(); err != nil {
				t.Fatalf("seed %d after delete %d (%d,%d): %v", seed, i, e[0], e[1], err)
			}
		}
	}
}

func TestDeleteEdgeErrors(t *testing.T) {
	g := testutil.RandomConnectedGraph(15, 25, 2)
	idx, err := Build(g, landmark.ByDegree(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.DeleteEdge(0, 0); !errors.Is(err, graph.ErrSelfLoop) {
		t.Errorf("self-loop: got %v", err)
	}
	if err := idx.DeleteEdge(0, 99); !errors.Is(err, graph.ErrVertexUnknown) {
		t.Errorf("unknown vertex: got %v", err)
	}
	var a, b uint32
	rng := rand.New(rand.NewSource(1))
	for {
		a, b = uint32(rng.Intn(15)), uint32(rng.Intn(15))
		if a != b && !g.HasEdge(a, b) {
			break
		}
	}
	if err := idx.DeleteEdge(a, b); !errors.Is(err, graph.ErrEdgeUnknown) {
		t.Errorf("missing edge: got %v", err)
	}
}

func TestMixedInsertDeleteQueriesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomGraph(40, 70, 90)
	lm := landmark.ByDegree(g, 4)
	idx, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 120; step++ {
		u := uint32(rng.Intn(40))
		v := uint32(rng.Intn(40))
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			if err := idx.DeleteEdge(u, v); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
		} else {
			if err := idx.InsertEdge(u, v); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
		}
		a, b := uint32(rng.Intn(40)), uint32(rng.Intn(40))
		if got, want := idx.Query(a, b), bfs.Dist(g, a, b); got != want {
			t.Fatalf("step %d: Query(%d,%d)=%d want %d", step, a, b, got, want)
		}
	}
	if err := idx.VerifyTrees(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryUnblocksLandmarks checks that Query leaves its pooled scratch
// as it found it: the landmarks it blocks for the search read graph.Inf
// again on both sides after every query.
func TestQueryUnblocksLandmarks(t *testing.T) {
	g := testutil.RandomGraph(50, 90, 3)
	idx, err := Build(g, landmark.ByDegree(g, 4))
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 50; u++ {
		for v := uint32(0); v < 50; v++ {
			idx.Query(u, v)
			s := bfs.Spaces.Get(g.NumVertices())
			for _, r := range idx.Landmarks {
				if s.DistU[r] != graph.Inf || s.DistV[r] != graph.Inf {
					t.Fatalf("after Query(%d,%d): landmark %d is (%d, %d) in the scratch, want Inf", u, v, r, s.DistU[r], s.DistV[r])
				}
			}
			bfs.Spaces.Put(s)
		}
	}
}
