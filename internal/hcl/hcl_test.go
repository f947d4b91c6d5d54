package hcl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/testutil"
)

// pathGraph returns 0-1-2-...-(n-1).
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(uint32(i), uint32(i+1))
	}
	return g
}

func TestBuildPathGraph(t *testing.T) {
	g := pathGraph(7)
	idx, err := Build(g, []uint32{0, 6})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := idx.Highway(0, 1); got != 6 {
		t.Errorf("highway 0-6: got %d, want 6", got)
	}
	// Every interior vertex lies on the single 0..6 path; its shortest path
	// to landmark 0 contains no other landmark, so it holds entries for
	// both landmarks.
	for v := uint32(1); v <= 5; v++ {
		if d, ok := idx.EntryDist(v, 0); !ok || d != graph.Dist(v) {
			t.Errorf("entry (0,%d): got %d,%v want %d", v, d, ok, v)
		}
		if d, ok := idx.EntryDist(v, 1); !ok || d != graph.Dist(6-v) {
			t.Errorf("entry (6,%d): got %d,%v want %d", v, d, ok, 6-v)
		}
	}
	for u := uint32(0); u < 7; u++ {
		for v := uint32(0); v < 7; v++ {
			want := graph.Dist(max(u, v) - min(u, v))
			if got := idx.Query(u, v); got != want {
				t.Errorf("Query(%d,%d): got %d, want %d", u, v, got, want)
			}
		}
	}
}

func TestBuildCoveredVertexGetsNoEntry(t *testing.T) {
	// 0 - 1 - 2 - 3 with landmarks 0 and 2: every shortest path from 0 to 3
	// passes through landmark 2, so vertex 3 must have no entry for 0.
	g := pathGraph(4)
	idx, err := Build(g, []uint32{0, 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, ok := idx.EntryDist(3, 0); ok {
		t.Errorf("vertex 3 should be covered by landmark 2 w.r.t. landmark 0")
	}
	if d, ok := idx.EntryDist(3, 1); !ok || d != 1 {
		t.Errorf("entry (2,3): got %d,%v want 1", d, ok)
	}
	if got := idx.Query(0, 3); got != 3 {
		t.Errorf("Query(0,3): got %d, want 3", got)
	}
	if err := idx.VerifyCover(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildUncoveredParallelPathKeepsEntry(t *testing.T) {
	// Two parallel paths from 0 to 4: 0-1-2-3-4 (through landmark 2) and
	// 0-5-6-7-4 (landmark-free). Vertex 4 has a shortest path to 0 avoiding
	// landmark 2, but another one through it — the "some shortest path
	// contains a landmark" case, so the entry must be dropped.
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddVertex()
	}
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {5, 6}, {6, 7}, {7, 4}} {
		g.MustAddEdge(e[0], e[1])
	}
	idx, err := Build(g, []uint32{0, 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, ok := idx.EntryDist(4, 0); ok {
		t.Errorf("vertex 4 is covered (a shortest 0-4 path passes landmark 2); entry must be absent")
	}
	if err := idx.VerifyCover(); err != nil {
		t.Fatal(err)
	}
	if got := idx.Query(0, 4); got != 4 {
		t.Errorf("Query(0,4): got %d, want 4", got)
	}
}

func TestBuildDisconnected(t *testing.T) {
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4) // separate component, no landmark
	idx, err := Build(g, []uint32{0})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := idx.Query(3, 4); got != 1 {
		t.Errorf("Query(3,4): got %d, want 1 (found by sparsified search)", got)
	}
	if got := idx.Query(0, 3); got != graph.Inf {
		t.Errorf("Query(0,3): got %d, want Inf", got)
	}
	if got := idx.Query(5, 5); got != 0 {
		t.Errorf("Query(5,5): got %d, want 0", got)
	}
	if _, ok := idx.EntryDist(3, 0); ok {
		t.Errorf("unreachable vertex must have no entries")
	}
}

func TestBuildErrors(t *testing.T) {
	g := pathGraph(3)
	if _, err := Build(g, nil); err == nil {
		t.Error("Build with no landmarks should fail")
	}
	if _, err := Build(g, []uint32{0, 0}); err == nil {
		t.Error("Build with duplicate landmarks should fail")
	}
	if _, err := Build(g, []uint32{9}); err == nil {
		t.Error("Build with unknown landmark vertex should fail")
	}
}

func TestBuildRandomVerifyCover(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := testutil.RandomGraph(80, 160, seed)
		lm := landmark.ByDegree(g, 5)
		idx, err := Build(g, lm)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		if err := idx.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := idx.VerifyMinimal(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestQueryMatchesBFSOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := testutil.RandomGraph(60, 110, 100+seed)
		lm := landmark.ByDegree(g, 4)
		idx, err := Build(g, lm)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		oracle := testutil.AllPairsOracle(g)
		for u := 0; u < 60; u++ {
			for v := 0; v < 60; v++ {
				if got := idx.Query(uint32(u), uint32(v)); got != oracle[u][v] {
					t.Fatalf("seed %d: Query(%d,%d): got %d, want %d", seed, u, v, got, oracle[u][v])
				}
			}
		}
	}
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := testutil.RandomConnectedGraph(120, 200, 200+seed)
		lm := landmark.ByDegree(g, 8)
		serial, err := Build(g, lm)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for _, workers := range []int{1, 2, 4, 0} {
			par, err := BuildParallel(g, lm, workers)
			if err != nil {
				t.Fatalf("BuildParallel(%d): %v", workers, err)
			}
			if err := serial.EqualLabels(par); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
	}
}

func TestUpperBoundIsUpperBound(t *testing.T) {
	g := testutil.RandomConnectedGraph(70, 140, 7)
	lm := landmark.ByDegree(g, 5)
	idx, err := Build(g, lm)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for u := uint32(0); u < 70; u++ {
		for v := uint32(0); v < 70; v++ {
			d := bfs.Dist(g, u, v)
			top := idx.UpperBound(u, v)
			if top < d {
				t.Fatalf("UpperBound(%d,%d)=%d below true distance %d", u, v, top, d)
			}
		}
	}
}

func TestUpperBoundExactWhenPathMeetsLandmark(t *testing.T) {
	// Star graph: centre 0 is the landmark; every path between leaves goes
	// through it, so the upper bound must already be exact.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddVertex()
	}
	for i := uint32(1); i < 6; i++ {
		g.MustAddEdge(0, i)
	}
	idx, err := Build(g, []uint32{0})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := idx.UpperBound(1, 2); got != 2 {
		t.Errorf("UpperBound(1,2): got %d, want 2", got)
	}
	if got := idx.Query(1, 2); got != 2 {
		t.Errorf("Query(1,2): got %d, want 2", got)
	}
}

func TestLabelSetGetRemove(t *testing.T) {
	var l Label
	l = l.Set(3, 5)
	l = l.Set(1, 7)
	l = l.Set(2, 9)
	l = l.Set(1, 4) // overwrite
	want := Label{{1, 4}, {2, 9}, {3, 5}}
	if !l.Equal(want) {
		t.Fatalf("label after sets: got %v, want %v", l, want)
	}
	if d, ok := l.Get(2); !ok || d != 9 {
		t.Errorf("Get(2): got %d,%v", d, ok)
	}
	if _, ok := l.Get(8); ok {
		t.Errorf("Get(8) should miss")
	}
	l, removed := l.Remove(2)
	if !removed {
		t.Error("remove(2) should report true")
	}
	if _, removed = l.Remove(2); removed {
		t.Error("second remove(2) should report false")
	}
	if !l.Equal(Label{{1, 4}, {3, 5}}) {
		t.Fatalf("label after remove: got %v", l)
	}
}

func TestLabelQuickProperty(t *testing.T) {
	// Property: a label behaves like a map from rank to distance, stays
	// sorted, and Get mirrors the map.
	f := func(ops []struct {
		Rank uint16
		D    uint32
		Del  bool
	}) bool {
		var l Label
		m := map[uint16]graph.Dist{}
		for _, op := range ops {
			r := op.Rank % 64
			if op.Del {
				l, _ = l.Remove(r)
				delete(m, r)
			} else {
				l = l.Set(r, op.D)
				m[r] = op.D
			}
		}
		if len(l) != len(m) {
			return false
		}
		for i := 1; i < len(l); i++ {
			if l[i-1].Rank >= l[i].Rank {
				return false
			}
		}
		for r, d := range m {
			got, ok := l.Get(r)
			if !ok || got != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHighway(t *testing.T) {
	for _, kind := range []Kind{undirected, {Magic: "DHL2", Dirs: 2}} {
		h, err := NewCore(kind, 5, []uint32{0, 2, 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Highway(1, 1); got != 0 {
			t.Errorf("diagonal: got %d, want 0", got)
		}
		if got := h.Highway(0, 2); got != graph.Inf {
			t.Errorf("unset: got %d, want Inf", got)
		}
		h.setHighway(0, 2, 7)
		if h.Highway(0, 2) != 7 || h.Row(0)[2] != 7 {
			t.Error("setHighway lost the cell")
		}
		if symmetric := h.Highway(2, 0) == 7; symmetric != (kind.Dirs == 1) {
			t.Errorf("dirs %d: mirrored write = %v", kind.Dirs, symmetric)
		}
		c := h.Fork()
		c.setHighway(0, 2, 9)
		if h.Highway(0, 2) != 7 {
			t.Error("Fork must not share the highway")
		}
		if h.Bytes() != 9*4 {
			t.Errorf("Bytes: got %d, want 36", h.Bytes())
		}
	}
}

// TestValidate pins the landmark and highway rules every labelling passes
// through, at the rank limit and on highways a stream could carry.
func TestValidate(t *testing.T) {
	seq := func(k int) []uint32 {
		lm := make([]uint32, k)
		for i := range lm {
			lm[i] = uint32(i)
		}
		return lm
	}
	// Rank 65535 is noRank, so 65535 landmarks is the most a labelling can
	// hold (validated without building either).
	if err := validate(seq(maxLandmarks), nil, maxLandmarks+1, true); err != nil {
		t.Errorf("|R| = %d: %v", maxLandmarks, err)
	}
	if err := validate(seq(maxLandmarks+1), nil, maxLandmarks+1, true); err == nil {
		t.Errorf("|R| = %d accepted", maxLandmarks+1)
	}
	hw := func(cells ...graph.Dist) []graph.Dist { return cells }
	cases := map[string]struct {
		landmarks []uint32
		hw        []graph.Dist
		symmetric bool
		ok        bool
	}{
		"valid":             {[]uint32{0, 3}, hw(0, 4, 4, 0), true, true},
		"asymmetric arcs":   {[]uint32{0, 3}, hw(0, 4, graph.Inf, 0), false, true},
		"no landmarks":      {nil, nil, true, false},
		"out of range":      {[]uint32{0, 6}, nil, true, false},
		"duplicate":         {[]uint32{0, 3, 0}, nil, true, false},
		"non-zero diagonal": {[]uint32{0, 3}, hw(0, 4, 4, 1), true, false},
		"asymmetric":        {[]uint32{0, 3}, hw(0, 4, 5, 0), true, false},
	}
	for name, c := range cases {
		if err := validate(c.landmarks, c.hw, 6, c.symmetric); (err == nil) != c.ok {
			t.Errorf("%s: got %v", name, err)
		}
	}
}

func TestIndexBytesAndAvg(t *testing.T) {
	g := pathGraph(5)
	idx, err := Build(g, []uint32{0})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Vertices 1..4 each hold one entry for landmark 0.
	if got := idx.NumEntries(); got != 4 {
		t.Errorf("NumEntries: got %d, want 4", got)
	}
	if got := idx.Bytes(); got != 4*EntryBytes+4 {
		t.Errorf("Bytes: got %d, want %d", got, 4*EntryBytes+4)
	}
	if got := float64(idx.NumEntries()) / float64(idx.G.NumVertices()); got != 0.8 {
		t.Errorf("average label size: got %v, want 0.8", got)
	}
}
