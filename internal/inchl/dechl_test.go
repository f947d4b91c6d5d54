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
		if d := u.PassDist(0, 0, v); d != graph.Inf {
			t.Errorf("PassDist(0, 0, %d): got %d, want Inf", v, d)
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

// TestRandomDeletionsMatchRebuild removes random edges from random graphs,
// with an occasional insertion to keep them from emptying, and requires the
// repaired labelling to be byte-identical to a fresh build after every op —
// DecHL preserves minimality like IncHL+ does. The shapes cover dense
// graphs, sparse trees whose every edge is a bridge (deletions disconnect
// vertices and landmarks), and crowded landmark sets that put landmarks
// inside the affected sets; the test checks all three happened.
func TestRandomDeletionsMatchRebuild(t *testing.T) {
	shapes := []struct {
		name      string
		graph     func(seed int64) *graph.Graph
		landmarks func(g *graph.Graph, rng *rand.Rand) []uint32
	}{
		{"dense", func(seed int64) *graph.Graph { return testutil.RandomGraph(50, 120, seed+40) },
			func(g *graph.Graph, _ *rand.Rand) []uint32 { return landmark.ByDegree(g, 4) }},
		{"bridges", func(seed int64) *graph.Graph { return testutil.RandomConnectedGraph(45, 6, seed+90) },
			func(g *graph.Graph, rng *rand.Rand) []uint32 { return randomLandmarks(g, 5, rng) }},
		{"crowded", func(seed int64) *graph.Graph { return testutil.RandomConnectedGraph(40, 30, seed+140) },
			func(g *graph.Graph, rng *rand.Rand) []uint32 { return randomLandmarks(g, 12, rng) }},
	}
	var disconnects, landmarksMoved int
	for _, sh := range shapes {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := sh.graph(seed)
			_, u := buildPair(t, g, sh.landmarks(g, rng))
			k := u.NumLandmarks()
			for step := 0; step < 30; step++ {
				var edges [][2]uint32
				u.Index.G.Edges(func(a, b uint32) { edges = append(edges, [2]uint32{a, b}) })
				if len(edges) == 0 || rng.Intn(5) == 0 {
					n := uint32(u.Index.G.NumVertices())
					if a, b := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n))); a != b && !u.Index.G.HasEdge(a, b) {
						if _, err := u.InsertEdge(a, b); err != nil {
							t.Fatalf("%s seed %d step %d: InsertEdge(%d,%d): %v", sh.name, seed, step, a, b, err)
						}
					}
					checkAgainstRebuild(t, u)
					continue
				}
				e := edges[rng.Intn(len(edges))]
				infBefore := infCells(u, k)
				st, err := u.DeleteEdge(e[0], e[1])
				if err != nil {
					t.Fatalf("%s seed %d step %d: DeleteEdge(%d,%d): %v", sh.name, seed, step, e[0], e[1], err)
				}
				if infCells(u, k) > infBefore {
					disconnects++
				}
				if st.HighwayUpdates > 0 {
					landmarksMoved++
				}
				checkAgainstRebuild(t, u)
			}
			if err := u.Index.VerifyCover(); err != nil {
				t.Fatalf("%s seed %d: %v", sh.name, seed, err)
			}
		}
	}
	t.Logf("%d landmark disconnections, %d deletions moving a landmark", disconnects, landmarksMoved)
	if disconnects == 0 || landmarksMoved == 0 {
		t.Fatalf("inputs too tame: %d landmark disconnections, %d deletions moving a landmark", disconnects, landmarksMoved)
	}
}

// randomLandmarks picks k distinct random vertices.
func randomLandmarks(g *graph.Graph, k int, rng *rand.Rand) []uint32 {
	var lm []uint32
	for _, v := range rng.Perm(g.NumVertices())[:k] {
		lm = append(lm, uint32(v))
	}
	return lm
}

// infCells counts the highway cells that hold Inf.
func infCells(u *Updater, k int) int {
	n := 0
	for i := 0; i < k; i++ {
		for _, d := range u.Row(uint16(i)) {
			if d == graph.Inf {
				n++
			}
		}
	}
	return n
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
