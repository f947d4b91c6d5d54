package dhcl

import (
	"testing"

	"repro/internal/digraph"
	"repro/internal/hcl"
)

// buildAt rebuilds the same directed fixture from scratch (graphs are
// mutated by updates, so every worker-count run gets its own copy) and
// pins the index to the given repair fan-out.
func buildAt(t *testing.T, n, m int, seed int64, k, workers int) (*digraph.Digraph, *Index) {
	t.Helper()
	g := randomDigraph(n, m, seed)
	idx, err := BuildParallel(g, topLandmarks(g, k), workers)
	if err != nil {
		t.Fatal(err)
	}
	idx.Workers = workers
	return g, idx
}

// runMixedD drives the same insert/delete arc stream through idx; every
// third inserted arc is deleted again so both repair paths execute.
func runMixedD(t *testing.T, idx *Index, arcs [][2]uint32) []hcl.Stats {
	t.Helper()
	var log []hcl.Stats
	for i, e := range arcs {
		st, err := idx.InsertEdge(e[0], e[1])
		if err != nil {
			t.Fatalf("insert %d (%d,%d): %v", i, e[0], e[1], err)
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

// TestBuildParallelMatchesSerial pins that the parallel construction is
// byte-identical to the serial one for any worker count.
func TestBuildParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := randomDigraph(70, 240, seed)
		serial, err := Build(g, topLandmarks(g, 5))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 0} {
			g2 := randomDigraph(70, 240, seed)
			par, err := BuildParallel(g2, topLandmarks(g2, 5), w)
			if err != nil {
				t.Fatal(err)
			}
			if err := serial.EqualLabels(par); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
		}
	}
}

// TestParallelRepairMatchesSerial pins the directed repair engine's
// contract: per-op Stats and the final labelling (labels + both highway
// halves) are identical to the serial path for any worker count.
func TestParallelRepairMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		gs, serial := buildAt(t, 60, 200, seed, 4, 1)
		arcs := nonEdges(gs, 15, seed*31+7)
		want := runMixedD(t, serial, arcs)

		for _, w := range []int{2, 0} {
			_, par := buildAt(t, 60, 200, seed, 4, w)
			got := runMixedD(t, par, arcs)
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
// fanned across workers, leave the same label tables (entries, bytes,
// every label) as serial ones after a repaired update stream.
func TestPackParallelMatchesSerial(t *testing.T) {
	gs, serial := buildAt(t, 60, 200, 5, 4, 1)
	arcs := nonEdges(gs, 9, 42)
	runMixedD(t, serial, arcs)

	_, par := buildAt(t, 60, 200, 5, 4, 4)
	runMixedD(t, par, arcs)

	for _, side := range []struct {
		name string
		s, p *hcl.Packed
	}{
		{"forward", serial.Packed(fwd), par.Packed(fwd)},
		{"backward", serial.Packed(bwd), par.Packed(bwd)},
	} {
		if side.s.NumEntries() != side.p.NumEntries() || side.s.ArenaBytes() != side.p.ArenaBytes() {
			t.Fatalf("%s: tables diverged: serial %d entries in %d bytes, parallel %d in %d",
				side.name, side.s.NumEntries(), side.s.ArenaBytes(), side.p.NumEntries(), side.p.ArenaBytes())
		}
	}
	if err := serial.EqualLabels(par); err != nil {
		t.Fatal(err)
	}
}
