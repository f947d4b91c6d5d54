package landmark

import (
	"testing"

	"repro/internal/testutil"
)

func TestByDegreePicksHubs(t *testing.T) {
	g := testutil.RandomConnectedGraph(50, 120, 3)
	lm := ByDegree(g, 5)
	if len(lm) != 5 {
		t.Fatalf("got %d landmarks", len(lm))
	}
	// Every selected landmark must have degree >= every non-selected vertex.
	minSel := 1 << 30
	sel := map[uint32]bool{}
	for _, v := range lm {
		sel[v] = true
		if d := g.Degree(v); d < minSel {
			minSel = d
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !sel[uint32(v)] && g.Degree(uint32(v)) > minSel {
			t.Fatalf("vertex %d (deg %d) beats selected min degree %d", v, g.Degree(uint32(v)), minSel)
		}
	}
}

func TestByDegreeClampsToVertexCount(t *testing.T) {
	g := testutil.RandomConnectedGraph(4, 2, 1)
	if got := len(ByDegree(g, 10)); got != 4 {
		t.Errorf("got %d landmarks, want 4", got)
	}
}

func TestByRandomDistinctAndDeterministic(t *testing.T) {
	g := testutil.RandomConnectedGraph(40, 60, 2)
	a := ByRandom(g, 10, 7)
	b := ByRandom(g, 10, 7)
	seen := map[uint32]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same selection")
		}
		if seen[a[i]] {
			t.Fatalf("duplicate landmark %d", a[i])
		}
		seen[a[i]] = true
	}
	c := ByRandom(g, 10, 8)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should give different selections")
	}
}

func TestByWeightedRandomDistinct(t *testing.T) {
	g := testutil.RandomConnectedGraph(30, 80, 5)
	lm := ByWeightedRandom(g, 6, 3)
	if len(lm) != 6 {
		t.Fatalf("got %d landmarks", len(lm))
	}
	seen := map[uint32]bool{}
	for _, v := range lm {
		if seen[v] {
			t.Fatalf("duplicate landmark %d", v)
		}
		seen[v] = true
	}
}

func TestSelect(t *testing.T) {
	g := testutil.RandomConnectedGraph(20, 30, 1)
	for _, s := range []string{TopDegree, Random, WeightedRandom, ""} {
		lm, err := SelectBy(g.NumVertices(), g.Degree, g.NumEdges(), 3, s, 1)
		if err != nil || len(lm) != 3 {
			t.Errorf("Select(%q): %v, %d landmarks", s, err, len(lm))
		}
	}
	if _, err := SelectBy(g.NumVertices(), g.Degree, g.NumEdges(), 3, "nope", 1); err == nil {
		t.Error("unknown strategy must fail")
	}
}
