package whcl

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/wgraph"
)

// edgesOf snapshots the current undirected edge set with weights.
func edgesOf(g *wgraph.Graph) [][3]uint32 {
	var out [][3]uint32
	for u := 0; u < g.NumVertices(); u++ {
		for _, a := range g.Neighbors(uint32(u)) {
			if uint32(u) < a.To {
				out = append(out, [3]uint32{uint32(u), a.To, a.W})
			}
		}
	}
	return out
}

func TestDeleteEdgeMatchesRebuildWeighted(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomWeighted(35, 80, 6, 70+seed)
		lm := topLandmarks(g, 3+int(seed%3))
		idx, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 7))
		for i := 0; i < 20; i++ {
			edges := edgesOf(g)
			if len(edges) == 0 {
				break
			}
			e := edges[rng.Intn(len(edges))]
			if _, err := idx.DeleteEdge(e[0], e[1]); err != nil {
				t.Fatalf("seed %d delete %d (%d,%d): %v", seed, i, e[0], e[1], err)
			}
			fresh, err := Build(g, lm)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.EqualLabels(fresh); err != nil {
				t.Fatalf("seed %d after delete %d (%d,%d): %v", seed, i, e[0], e[1], err)
			}
		}
		if err := idx.VerifyCover(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDeleteThenReinsertWeighted(t *testing.T) {
	g := randomWeighted(30, 60, 5, 11)
	lm := topLandmarks(g, 4)
	idx, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		edges := edgesOf(g)
		e := edges[rng.Intn(len(edges))]
		if _, err := idx.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.InsertEdge(e[0], e[1], graph.Dist(e[2])); err != nil {
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

func TestDeleteEdgeErrorsWeighted(t *testing.T) {
	g := randomWeighted(20, 40, 4, 5)
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
}
