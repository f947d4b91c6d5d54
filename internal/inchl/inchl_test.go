package inchl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/landmark"
	"repro/internal/testutil"
)

// buildPair returns a clone of g and an index over it, leaving g untouched
// for oracle rebuilds.
func buildPair(t *testing.T, g *graph.Graph, landmarks []uint32) (*graph.Graph, *labelled) {
	t.Helper()
	gc := g.Clone()
	idx, err := hcl.Build(gc, landmarks, 1)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return gc, idx
}

// checkAgainstRebuild asserts that the incrementally maintained index is
// exactly the fresh build of its (already updated) graph — the minimality
// preservation of Theorem 5.2, plus exactness of every entry.
func checkAgainstRebuild(t *testing.T, u *labelled) {
	t.Helper()
	fresh, err := hcl.Build(u.G, u.Landmarks, 1)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if err := u.EqualLabels(fresh); err != nil {
		t.Fatal(err)
	}
}

func TestInsertEdgeSimplePath(t *testing.T) {
	// 0-1-2-3-4-5, landmark 0. Insert (0,5): distances of 3,4,5 drop.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	for i := 0; i < 5; i++ {
		g.MustAddEdge(uint32(i), uint32(i+1))
	}
	_, u := buildPair(t, g, []uint32{0})
	st, err := u.InsertEdge(0, 5, 1)
	if err != nil {
		t.Fatalf("InsertEdge: %v", err)
	}
	if st.AffectedUnion == 0 {
		t.Error("expected affected vertices")
	}
	if d, ok := u.Entry(0, 5, 0); !ok || d != 1 {
		t.Errorf("entry (0,5): got %d,%v want 1", d, ok)
	}
	if d, ok := u.Entry(0, 3, 0); !ok || d != 3 {
		t.Errorf("entry (0,3): got %d,%v want 3 (either side of the cycle)", d, ok)
	}
	checkAgainstRebuild(t, u)
	if err := u.VerifyCover(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertEdgeCoveredRemoval(t *testing.T) {
	// Path 0-1-2-3-4-5-6 with landmarks 0 and 6. Vertex 3 initially keeps
	// entries for both. Inserting (0,6) makes every shortest path from 3 to
	// 0 ... stay direct, but shortest paths of 5 to 0 now pass landmark 6:
	// the entry (0,·) at vertex 5 must be *removed* — outdated entry
	// elimination, the paper's headline capability.
	g := graph.New(7)
	for i := 0; i < 7; i++ {
		g.AddVertex()
	}
	for i := 0; i < 6; i++ {
		g.MustAddEdge(uint32(i), uint32(i+1))
	}
	_, u := buildPair(t, g, []uint32{0, 6})
	if d, ok := u.Entry(0, 5, 0); !ok || d != 5 {
		t.Fatalf("precondition: entry (0,5): got %d,%v want 5", d, ok)
	}
	if _, err := u.InsertEdge(0, 6, 1); err != nil {
		t.Fatalf("InsertEdge: %v", err)
	}
	if _, ok := u.Entry(0, 5, 0); ok {
		t.Error("entry for landmark 0 at vertex 5 should be removed (covered by landmark 6)")
	}
	if got := u.Highway(0, 1); got != 1 {
		t.Errorf("highway 0-6 after insert: got %d, want 1", got)
	}
	checkAgainstRebuild(t, u)
	if err := u.VerifyCover(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertEdgeEqualDistanceSkips(t *testing.T) {
	// Triangle-to-be: 0-1, 0-2, landmark 0. Inserting (1,2) changes no
	// shortest path to the landmark: both endpoints at distance 1.
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	_, u := buildPair(t, g, []uint32{0})
	st, err := u.InsertEdge(1, 2, 1)
	if err != nil {
		t.Fatalf("InsertEdge: %v", err)
	}
	if st.LandmarksSkipped != 1 {
		t.Errorf("LandmarksSkipped: got %d, want 1", st.LandmarksSkipped)
	}
	if st.AffectedUnion != 0 {
		t.Errorf("AffectedUnion: got %d, want 0", st.AffectedUnion)
	}
	checkAgainstRebuild(t, u)
}

func TestInsertEdgeErrors(t *testing.T) {
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	_, u := buildPair(t, g, []uint32{0})
	if _, err := u.InsertEdge(0, 0, 1); err == nil {
		t.Error("self-loop must be rejected")
	}
	if _, err := u.InsertEdge(0, 1, 1); err == nil {
		t.Error("duplicate edge must be rejected")
	}
	if _, err := u.InsertEdge(0, 9, 1); err == nil {
		t.Error("unknown vertex must be rejected")
	}
}

func TestInsertEdgeMergesComponents(t *testing.T) {
	// Component A: 0-1-2 (landmark 0); component B: 3-4-5 (no landmark).
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	_, u := buildPair(t, g, []uint32{0})
	st, err := u.InsertEdge(2, 3, 1)
	if err != nil {
		t.Fatalf("InsertEdge: %v", err)
	}
	if st.AffectedUnion != 3 {
		t.Errorf("AffectedUnion: got %d, want 3 (the whole B component)", st.AffectedUnion)
	}
	for v, want := range map[uint32]graph.Dist{3: 3, 4: 4, 5: 5} {
		if d, ok := u.Entry(0, v, 0); !ok || d != want {
			t.Errorf("entry (0,%d): got %d,%v want %d", v, d, ok, want)
		}
	}
	if got := u.Query(0, 5); got != 5 {
		t.Errorf("Query(0,5): got %d, want 5", got)
	}
	checkAgainstRebuild(t, u)
}

func TestInsertEdgeBetweenLandmarks(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	_, u := buildPair(t, g, []uint32{0, 3})
	if _, err := u.InsertEdge(0, 3, 1); err != nil {
		t.Fatalf("InsertEdge: %v", err)
	}
	if got := u.Highway(0, 1); got != 1 {
		t.Errorf("highway after landmark-landmark edge: got %d, want 1", got)
	}
	checkAgainstRebuild(t, u)
	if err := u.VerifyCover(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInsertionsMatchRebuild(t *testing.T) {
	// The main oracle: on random graphs, every insertion must leave the
	// labelling identical to a from-scratch build (unique minimal
	// labelling), and queries exact.
	for seed := int64(0); seed < 10; seed++ {
		g := testutil.RandomGraph(70, 120, seed)
		k := 2 + int(seed%4)
		lm := landmark.ByDegree(g, k)
		_, u := buildPair(t, g, lm)
		inserts := testutil.NonEdges(g, 25, seed*31+7)
		for i, e := range inserts {
			if _, err := u.InsertEdge(e[0], e[1], 1); err != nil {
				t.Fatalf("seed %d insert %d (%d,%d): %v", seed, i, e[0], e[1], err)
			}
			checkAgainstRebuild(t, u)
		}
		if err := u.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracle := testutil.AllPairsOracle(u.G)
		for x := 0; x < 70; x++ {
			for y := 0; y < 70; y++ {
				if got := u.Query(uint32(x), uint32(y)); got != oracle[x][y] {
					t.Fatalf("seed %d: Query(%d,%d): got %d, want %d", seed, x, y, got, oracle[x][y])
				}
			}
		}
	}
}

func TestRandomInsertionsQuickProperty(t *testing.T) {
	// Property-based variant: arbitrary seeds drive graph shape, landmark
	// count and insertion stream; the invariant is labelling ≡ rebuild.
	f := func(seed int64, kRaw uint8, denseRaw uint8) bool {
		n := 40
		m := 40 + int(denseRaw)%120
		k := 1 + int(kRaw)%6
		g := testutil.RandomGraph(n, m, seed)
		lm := landmark.ByDegree(g, k)
		idx, err := hcl.Build(g, lm, 1)
		if err != nil {
			return false
		}
		u := idx
		for _, e := range testutil.NonEdges(g, 12, seed+999) {
			if _, err := u.InsertEdge(e[0], e[1], 1); err != nil {
				return false
			}
		}
		fresh, err := hcl.Build(u.G, lm, 1)
		if err != nil {
			return false
		}
		return u.EqualLabels(fresh) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}
func TestRepairRebuildStrategyEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := testutil.RandomGraph(50, 90, 70+seed)
		lm := landmark.ByDegree(g, 4)
		_, partial := buildPair(t, g, lm)
		_, rebuild := buildPair(t, g, lm)
		rebuild.Strategy = hcl.RepairRebuild
		for _, e := range testutil.NonEdges(g, 15, seed) {
			if _, err := partial.InsertEdge(e[0], e[1], 1); err != nil {
				t.Fatal(err)
			}
			if _, err := rebuild.InsertEdge(e[0], e[1], 1); err != nil {
				t.Fatal(err)
			}
			if err := partial.EqualLabels(rebuild); err != nil {
				t.Fatalf("seed %d: strategies diverged: %v", seed, err)
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	g := testutil.RandomConnectedGraph(40, 60, 11)
	lm := landmark.ByDegree(g, 3)
	_, u := buildPair(t, g, lm)
	var added, removed int
	for _, e := range testutil.NonEdges(g, 20, 3) {
		st, err := u.InsertEdge(e[0], e[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if st.LandmarksTotal != 3 {
			t.Fatalf("LandmarksTotal: got %d, want 3", st.LandmarksTotal)
		}
		if st.AffectedSum < st.AffectedUnion {
			t.Fatalf("AffectedSum %d < AffectedUnion %d", st.AffectedSum, st.AffectedUnion)
		}
		if st.LandmarksSkipped > st.LandmarksTotal {
			t.Fatalf("LandmarksSkipped out of range: %+v", st)
		}
		added += st.EntriesAdded
		removed += st.EntriesRemoved
	}
	if added == 0 {
		t.Error("expected some entries to be added over 20 insertions")
	}
	_ = removed // removal depends on topology; exercised by dedicated tests
}

func TestMinimalitySizeNeverAboveRebuild(t *testing.T) {
	// size(L) of the maintained labelling equals the fresh build's at every
	// step — the Theorem 5.2 statement in its original "size" form.
	g := testutil.RandomGraph(60, 100, 31)
	lm := landmark.ByDegree(g, 5)
	_, u := buildPair(t, g, lm)
	for _, e := range testutil.NonEdges(g, 30, 17) {
		if _, err := u.InsertEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
		fresh, err := hcl.Build(u.G, lm, 1)
		if err != nil {
			t.Fatal(err)
		}
		if u.NumEntries() != fresh.NumEntries() {
			t.Fatalf("size mismatch: inc %d vs rebuild %d", u.NumEntries(), fresh.NumEntries())
		}
	}
}

// labelled is the undirected labelled index these tests maintain.
type labelled = hcl.Labelled[*graph.Graph]
