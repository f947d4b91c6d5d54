package dynhl

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bfs"
	"repro/internal/hcl"
	"repro/internal/testutil"
)

// TestSoakMixedUpdateStream drives a long interleaved stream of edge
// insertions, edge deletions (including delete-then-reinsert round trips
// and bridge cuts that disconnect components) and vertex insertions through
// the public API, auditing the full labelling periodically and
// spot-checking queries against BFS throughout — unreachable pairs must
// answer Inf.
func TestSoakMixedUpdateStream(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(99))
	g := testutil.RandomGraph(150, 300, 1)
	idx, err := Build(g, Options{Landmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 400; step++ {
		n := idx.Graph().NumVertices()
		switch p := rng.Float64(); {
		case p < 0.15:
			k := 1 + rng.Intn(3)
			ns := map[uint32]bool{}
			for len(ns) < k {
				ns[uint32(rng.Intn(n))] = true
			}
			var list []uint32
			for v := range ns {
				list = append(list, v)
			}
			if _, _, err := idx.InsertVertex(Arcs(list...)); err != nil {
				t.Fatalf("step %d: InsertVertex: %v", step, err)
			}
		case p < 0.40:
			// Delete a random existing edge; a third of the time put it
			// straight back (churny workloads flap).
			u := uint32(rng.Intn(n))
			if idx.Graph().Degree(u) == 0 {
				continue
			}
			ns := idx.Graph().Neighbors(u)
			v := ns[rng.Intn(len(ns))]
			if _, err := idx.DeleteEdge(u, v); err != nil {
				t.Fatalf("step %d: DeleteEdge(%d,%d): %v", step, u, v, err)
			}
			if rng.Float64() < 0.33 {
				if _, err := idx.InsertEdge(u, v, 0); err != nil {
					t.Fatalf("step %d: reinsert (%d,%d): %v", step, u, v, err)
				}
			}
		default:
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			if u == v || idx.Graph().HasEdge(u, v) {
				continue
			}
			if _, err := idx.InsertEdge(u, v, 0); err != nil {
				t.Fatalf("step %d: InsertEdge(%d,%d): %v", step, u, v, err)
			}
		}
		// Spot-check a random query every step.
		n = idx.Graph().NumVertices()
		a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if got, want := idx.Query(a, b), bfs.Dist(idx.Graph(), a, b); got != want {
			t.Fatalf("step %d: Query(%d,%d): got %d, want %d", step, a, b, got, want)
		}
		if step%100 == 99 {
			if err := idx.Verify(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := idx.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadThenUpdate pins that a restored index is fully operational:
// insertions after LoadIndex must keep it identical to a fresh rebuild.
func TestSaveLoadThenUpdate(t *testing.T) {
	g := testutil.RandomConnectedGraph(80, 140, 7)
	idx, err := Build(g, Options{Landmarks: 6})
	if err != nil {
		t.Fatal(err)
	}
	var graphBuf, idxBuf bytes.Buffer
	if err := WriteGraph(&graphBuf, idx.Graph()); err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(&idxBuf); err != nil {
		t.Fatal(err)
	}

	g2, err := ReadGraph(&graphBuf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadIndex(&idxBuf, g2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range testutil.NonEdges(g2, 15, 3) {
		if _, err := restored.InsertEdge(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := hcl.Build(g2, restored.core.Landmarks)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.core.EqualLabels(&fresh.Core); err != nil {
		t.Fatalf("restored index diverged after updates: %v", err)
	}
	if err := restored.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadIndexRejectsMismatch guards the public loader against the wrong
// graph.
func TestLoadIndexRejectsMismatch(t *testing.T) {
	g := testutil.RandomConnectedGraph(30, 50, 2)
	idx, err := Build(g, Options{Landmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := testutil.RandomConnectedGraph(31, 50, 3)
	if _, err := LoadIndex(&buf, other); err == nil {
		t.Error("graph mismatch must be rejected")
	}
}
