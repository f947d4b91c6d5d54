package dhcl

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/hcl"
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

// TestDeleteEdgeMatchesRebuildDirected deletes random arcs, with an
// occasional insertion, and requires both label directions and the
// highway to equal a fresh build after every op. The shapes cover dense
// digraphs, sparse ones where most vertices hang off a single arc
// (deletions cut vertices and landmarks off in one or both directions), and
// crowded landmark sets that put landmarks inside the affected sets; the
// test checks all three happened.
func TestDeleteEdgeMatchesRebuildDirected(t *testing.T) {
	shapes := []struct {
		name      string
		graph     func(seed int64) *digraph.Digraph
		landmarks func(g *digraph.Digraph, rng *rand.Rand) []uint32
	}{
		{"dense", func(seed int64) *digraph.Digraph { return randomDigraph(35, 90, 50+seed) },
			func(g *digraph.Digraph, rng *rand.Rand) []uint32 { return topLandmarks(g, 3+rng.Intn(3)) }},
		{"sparse", func(seed int64) *digraph.Digraph { return randomDigraph(40, 55, 150+seed) },
			func(g *digraph.Digraph, rng *rand.Rand) []uint32 { return randomLandmarks(g, 5, rng) }},
		{"crowded", func(seed int64) *digraph.Digraph { return randomDigraph(30, 80, 250+seed) },
			func(g *digraph.Digraph, rng *rand.Rand) []uint32 { return randomLandmarks(g, 10, rng) }},
	}
	var disconnects, landmarksMoved int
	for _, sh := range shapes {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed * 13))
			g := sh.graph(seed)
			lm := sh.landmarks(g, rng)
			idx, err := hcl.Build(g, lm, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				arcs := arcsOf(g)
				infBefore := countInf(highway(idx))
				var st hcl.Stats
				var what string
				if len(arcs) == 0 || rng.Intn(5) == 0 {
					n := g.NumVertices()
					a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					if a == b || g.HasEdge(a, b) {
						continue
					}
					what = fmt.Sprintf("insert %d (%d→%d)", i, a, b)
					if _, err := idx.InsertEdge(a, b, 1); err != nil {
						t.Fatalf("%s seed %d %s: %v", sh.name, seed, what, err)
					}
				} else {
					e := arcs[rng.Intn(len(arcs))]
					what = fmt.Sprintf("delete %d (%d→%d)", i, e[0], e[1])
					if st, err = idx.DeleteEdge(e[0], e[1]); err != nil {
						t.Fatalf("%s seed %d %s: %v", sh.name, seed, what, err)
					}
				}
				if countInf(highway(idx)) > infBefore {
					disconnects++
				}
				if st.HighwayUpdates > 0 {
					landmarksMoved++
				}
				fresh, err := hcl.Build(g, lm, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := idx.EqualLabels(fresh); err != nil {
					t.Fatalf("%s seed %d after %s: %v", sh.name, seed, what, err)
				}
			}
			if err := idx.VerifyCover(); err != nil {
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
func randomLandmarks(g *digraph.Digraph, k int, rng *rand.Rand) []uint32 {
	var lm []uint32
	for _, v := range rng.Perm(g.NumVertices())[:k] {
		lm = append(lm, uint32(v))
	}
	return lm
}

// countInf counts the Inf cells of a highway copy.
func countInf(hw []uint32) int {
	n := 0
	for _, d := range hw {
		if d == graph.Inf {
			n++
		}
	}
	return n
}

func TestDeleteThenReinsertDirected(t *testing.T) {
	g := randomDigraph(30, 70, 21)
	lm := topLandmarks(g, 4)
	idx, err := hcl.Build(g, lm, 1)
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
		if _, err := idx.InsertEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
		fresh, err := hcl.Build(g, lm, 1)
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
	idx, err := hcl.Build(g, topLandmarks(g, 3), 1)
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
