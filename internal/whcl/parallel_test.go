package whcl

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// buildAt rebuilds the same weighted fixture from scratch (graphs are
// mutated by updates, so every worker-count run gets its own copy) and
// pins the index to the given repair fan-out.
func buildAt(t *testing.T, n, m int, maxW graph.Dist, seed int64, k, workers int) (*wgraph.Graph, *labelled) {
	t.Helper()
	g := randomWeighted(n, m, maxW, seed)
	idx, err := hcl.Build(g, topLandmarks(g, k), workers)
	if err != nil {
		t.Fatal(err)
	}
	idx.Workers = workers
	return g, idx
}

// runMixedW drives the same weighted insert/delete stream through idx;
// every third inserted edge is deleted again so both repair paths
// (classify on insert, per-landmark rebuild on delete) execute.
func runMixedW(t *testing.T, idx *labelled, edges [][2]uint32) []hcl.Stats {
	t.Helper()
	var log []hcl.Stats
	for i, e := range edges {
		w := graph.Dist(1 + (int(e[0])+int(e[1])+i)%7)
		st, err := idx.InsertEdge(e[0], e[1], w)
		if err != nil {
			t.Fatalf("insert %d (%d,%d,w=%d): %v", i, e[0], e[1], w, err)
		}
		log = append(log, st)
		if i%3 == 2 {
			st, err := idx.DeleteEdge(e[0], e[1])
			if err != nil {
				t.Fatalf("delete %d (%d,%d): %v", i, e[0], e[1], err)
			}
			log = append(log, st)
		}
	}
	return log
}

// TestBuildParallelMatchesSerial pins that the parallel weighted
// construction is byte-identical to the serial one for any worker count.
func TestBuildParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := randomWeighted(70, 240, 8, seed)
		serial, err := hcl.Build(g, topLandmarks(g, 5), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 0} {
			g2 := randomWeighted(70, 240, 8, seed)
			par, err := hcl.Build(g2, topLandmarks(g2, 5), w)
			if err != nil {
				t.Fatal(err)
			}
			if err := serial.EqualLabels(par); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
		}
	}
}

// TestParallelRepairMatchesSerial pins the weighted repair engine's
// contract: per-op hcl.Stats and the final labelling (labels + highway) are
// identical to the serial path for any worker count.
func TestParallelRepairMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		gs, serial := buildAt(t, 60, 200, 8, seed, 4, 1)
		edges := nonEdges(gs, 15, seed*29+5)
		want := runMixedW(t, serial, edges)

		for _, w := range []int{2, 0} {
			_, par := buildAt(t, 60, 200, 8, seed, 4, w)
			got := runMixedW(t, par, edges)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d: op %d stats diverged: got %+v, want %+v",
						seed, w, i, got[i], want[i])
				}
			}
			if err := serial.EqualLabels(par); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if err := par.VerifyCover(); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
		}
	}
}

// TestPackParallelMatchesSerial pins that the merge's chunk rewrites,
// fanned across workers, leave the same label table as serial ones after a
// repaired update stream.
func TestPackParallelMatchesSerial(t *testing.T) {
	gs, serial := buildAt(t, 60, 200, 8, 5, 4, 1)
	edges := nonEdges(gs, 9, 42)
	runMixedW(t, serial, edges)

	_, par := buildAt(t, 60, 200, 8, 5, 4, 4)
	runMixedW(t, par, edges)

	if s, p := serial.Packed(0), par.Packed(0); s.NumEntries() != p.NumEntries() || s.ArenaBytes() != p.ArenaBytes() {
		t.Fatalf("tables diverged: serial %d entries in %d bytes, parallel %d in %d",
			s.NumEntries(), s.ArenaBytes(), p.NumEntries(), p.ArenaBytes())
	}
	if err := serial.EqualLabels(par); err != nil {
		t.Fatal(err)
	}
}
