package dhcl

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
)

// arcsOf snapshots the current directed edge set.
func arcsOf(g *digraph.Digraph) [][2]uint32 {
	var out [][2]uint32
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Out(uint32(u)) {
			out = append(out, [2]uint32{uint32(u), v})
		}
	}
	return out
}

func TestDeleteEdgeMatchesRebuildDirected(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomDigraph(35, 90, 50+seed)
		lm := topLandmarks(g, 3+int(seed%3))
		idx, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 13))
		for i := 0; i < 20; i++ {
			arcs := arcsOf(g)
			if len(arcs) == 0 {
				break
			}
			e := arcs[rng.Intn(len(arcs))]
			if _, err := idx.DeleteEdge(e[0], e[1]); err != nil {
				t.Fatalf("seed %d delete %d (%d→%d): %v", seed, i, e[0], e[1], err)
			}
			fresh, err := Build(g, lm)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.EqualLabels(fresh); err != nil {
				t.Fatalf("seed %d after delete %d (%d→%d): %v", seed, i, e[0], e[1], err)
			}
		}
		if err := idx.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDeleteThenReinsertDirected(t *testing.T) {
	g := randomDigraph(30, 70, 21)
	lm := topLandmarks(g, 4)
	idx, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		arcs := arcsOf(g)
		e := arcs[rng.Intn(len(arcs))]
		if _, err := idx.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.EqualLabels(fresh); err != nil {
			t.Fatalf("round trip %d diverged: %v", i, err)
		}
	}
}

func TestDeleteEdgeErrorsDirected(t *testing.T) {
	g := randomDigraph(20, 50, 7)
	idx, err := Build(g, topLandmarks(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.DeleteEdge(0, 0); !errors.Is(err, graph.ErrSelfLoop) {
		t.Errorf("self-loop: got %v", err)
	}
	if _, err := idx.DeleteEdge(0, 99); !errors.Is(err, graph.ErrVertexUnknown) {
		t.Errorf("unknown vertex: got %v", err)
	}
	for _, e := range nonEdges(g, 1, 3) {
		if _, err := idx.DeleteEdge(e[0], e[1]); !errors.Is(err, graph.ErrEdgeUnknown) {
			t.Errorf("missing edge: got %v", err)
		}
	}
	if _, err := idx.DeleteVertex(idx.Landmarks[0]); err == nil {
		t.Error("deleting a landmark must fail")
	}
}

func TestDeleteVertexDirected(t *testing.T) {
	g := randomDigraph(25, 60, 14)
	lm := topLandmarks(g, 3)
	idx, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	var v uint32
	for v = 0; ; v++ {
		if _, isL := idx.Rank(v); !isL && (g.OutDegree(v) > 0 || g.InDegree(v) > 0) {
			break
		}
	}
	if _, err := idx.DeleteVertex(v); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(v) != 0 || g.InDegree(v) != 0 {
		t.Errorf("vertex %d still has edges", v)
	}
	if lf, lb := idx.Labels(fwd)[v], idx.Labels(bwd)[v]; len(lf) != 0 || len(lb) != 0 {
		t.Errorf("isolated vertex kept entries: %v / %v", lf, lb)
	}
	fresh, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.EqualLabels(fresh); err != nil {
		t.Fatal(err)
	}
}
