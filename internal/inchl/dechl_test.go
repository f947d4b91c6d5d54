package inchl

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/testutil"
)

func TestDeleteEdgeSimplePath(t *testing.T) {
	// 0-1-2-3-4-5 plus shortcut (0,5), landmark 0. Deleting the shortcut
	// restores the path distances; deleting (2,3) then splits the path.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	for i := 0; i < 5; i++ {
		g.MustAddEdge(uint32(i), uint32(i+1))
	}
	g.MustAddEdge(0, 5)
	_, u := buildPair(t, g, []uint32{0})
	st, err := u.DeleteEdge(0, 5)
	if err != nil {
		t.Fatalf("DeleteEdge: %v", err)
	}
	if st.LandmarksSkipped != 0 {
		t.Errorf("shortcut is on the landmark's DAG; skipped = %d", st.LandmarksSkipped)
	}
	if d, ok := u.Index.EntryDist(5, 0); !ok || d != 5 {
		t.Errorf("entry (0,5): got %d,%v want 5", d, ok)
	}
	checkAgainstRebuild(t, u)
	if err := u.Index.VerifyCover(); err != nil {
		t.Fatal(err)
	}

	// Bridge deletion disconnects 3,4,5 from the landmark.
	if _, err := u.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	for v := uint32(3); v <= 5; v++ {
		if _, ok := u.Index.EntryDist(v, 0); ok {
			t.Errorf("vertex %d unreachable but still has an entry", v)
		}
		if d := u.Index.LandmarkDist(0, v); d != graph.Inf {
			t.Errorf("LandmarkDist(0,%d): got %d, want Inf", v, d)
		}
	}
	checkAgainstRebuild(t, u)
	if err := u.Index.VerifyCover(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteEdgeDisconnectsLandmark(t *testing.T) {
	// Two landmarks joined by a bridge: deleting it must reset the highway
	// cell between them to Inf.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	_, u := buildPair(t, g, []uint32{0, 3})
	if _, err := u.DeleteEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if d := u.Highway(0, 1); d != graph.Inf {
		t.Errorf("highway cell after disconnect: got %d, want Inf", d)
	}
	checkAgainstRebuild(t, u)
	if err := u.Index.VerifyCover(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteEdgeErrors(t *testing.T) {
	g := testutil.RandomConnectedGraph(20, 30, 3)
	_, u := buildPair(t, g, landmark.ByDegree(g, 3))
	if _, err := u.DeleteEdge(0, 0); !errors.Is(err, graph.ErrSelfLoop) {
		t.Errorf("self-loop: got %v", err)
	}
	if _, err := u.DeleteEdge(0, 99); !errors.Is(err, graph.ErrVertexUnknown) {
		t.Errorf("unknown vertex: got %v", err)
	}
	// Find a non-edge.
	var a, b uint32
	rng := rand.New(rand.NewSource(1))
	for {
		a, b = uint32(rng.Intn(20)), uint32(rng.Intn(20))
		if a != b && !u.Index.G.HasEdge(a, b) {
			break
		}
	}
	if _, err := u.DeleteEdge(a, b); !errors.Is(err, graph.ErrEdgeUnknown) {
		t.Errorf("missing edge: got %v", err)
	}
}

// TestRandomDeletionsMatchRebuild removes random edges from random graphs
// and requires the repaired labelling to be byte-identical to a fresh build
// after every deletion — DecHL preserves minimality like IncHL+ does.
func TestRandomDeletionsMatchRebuild(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(50, 120, seed+40)
		lm := landmark.ByDegree(g, 4)
		_, u := buildPair(t, g, lm)
		for step := 0; step < 25; step++ {
			// Pick an existing edge uniformly-ish.
			var edges [][2]uint32
			u.Index.G.Edges(func(a, b uint32) { edges = append(edges, [2]uint32{a, b}) })
			if len(edges) == 0 {
				break
			}
			e := edges[rng.Intn(len(edges))]
			if _, err := u.DeleteEdge(e[0], e[1]); err != nil {
				t.Fatalf("seed %d step %d: DeleteEdge(%d,%d): %v", seed, step, e[0], e[1], err)
			}
			checkAgainstRebuild(t, u)
		}
		if err := u.Index.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDeleteThenReinsert pins that a delete/insert round trip restores the
// exact original labelling.
func TestDeleteThenReinsert(t *testing.T) {
	g := testutil.RandomConnectedGraph(40, 90, 17)
	lm := landmark.ByDegree(g, 4)
	_, u := buildPair(t, g, lm)
	var edges [][2]uint32
	u.Index.G.Edges(func(a, b uint32) { edges = append(edges, [2]uint32{a, b}) })
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		e := edges[rng.Intn(len(edges))]
		if _, err := u.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := u.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		checkAgainstRebuild(t, u)
	}
}

func TestDeleteVertexIsolates(t *testing.T) {
	g := testutil.RandomConnectedGraph(30, 60, 9)
	lm := landmark.ByDegree(g, 3)
	_, u := buildPair(t, g, lm)
	// Pick a non-landmark vertex with at least one edge.
	var v uint32
	for v = 0; ; v++ {
		if !u.Index.IsLandmark(v) && u.Index.G.Degree(v) > 0 {
			break
		}
	}
	if _, err := u.DeleteVertex(v); err != nil {
		t.Fatal(err)
	}
	if u.Index.G.Degree(v) != 0 {
		t.Errorf("vertex %d still has %d edges", v, u.Index.G.Degree(v))
	}
	if len(u.Labels(0)[v]) != 0 {
		t.Errorf("isolated vertex kept label entries: %v", u.Labels(0)[v])
	}
	checkAgainstRebuild(t, u)
	if _, err := u.DeleteVertex(u.Index.Landmarks[0]); err == nil {
		t.Error("deleting a landmark must fail")
	}
}
