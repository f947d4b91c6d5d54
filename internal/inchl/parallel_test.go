package inchl

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hcl"
	"repro/internal/landmark"
	"repro/internal/testutil"
)

// workerSweep is the fan-out values every determinism test runs: the forced
// serial path, a fixed parallel width, and the GOMAXPROCS default.
var workerSweep = []int{1, 2, 0}

// runMixed drives the same insert/delete stream through u and returns the
// per-op stats; every third inserted edge is deleted again so both repair
// paths (classify and rebuild) execute.
func runMixed(t *testing.T, u *labelled, edges [][2]uint32) []hcl.Stats {
	t.Helper()
	var log []hcl.Stats
	for i, e := range edges {
		st, err := u.InsertEdge(e[0], e[1], 1)
		if err != nil {
			t.Fatalf("insert %d (%d,%d): %v", i, e[0], e[1], err)
		}
		log = append(log, st)
		if i%3 == 2 {
			st, err := u.DeleteEdge(e[0], e[1])
			if err != nil {
				t.Fatalf("delete %d (%d,%d): %v", i, e[0], e[1], err)
			}
			log = append(log, st)
		}
	}
	return log
}

// TestParallelRepairMatchesSerial pins the engine's core contract: for any
// worker count the repaired labelling, the highway and every per-op hcl.Stats
// are identical to the serial path's.
func TestParallelRepairMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := testutil.RandomConnectedGraph(60, 80, seed)
		lm := landmark.ByDegree(g, 4)
		edges := testutil.NonEdges(g, 18, seed*17+3)

		_, serial := buildPair(t, g, lm)
		serial.Workers = 1
		want := runMixed(t, serial, edges)

		for _, w := range workerSweep[1:] {
			_, par := buildPair(t, g, lm)
			par.Workers = w
			got := runMixed(t, par, edges)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d: op %d stats diverged: got %+v, want %+v",
						seed, w, i, got[i], want[i])
				}
			}
			if err := serial.EqualLabels(par); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
		}
	}
}

// TestParallelRebuildStrategyMatchesSerial covers the hcl.RepairRebuild
// strategy, whose per-landmark tasks are full BFS rebuilds.
func TestParallelRebuildStrategyMatchesSerial(t *testing.T) {
	g := testutil.RandomConnectedGraph(50, 70, 11)
	lm := landmark.ByDegree(g, 4)
	edges := testutil.NonEdges(g, 12, 99)

	_, serial := buildPair(t, g, lm)
	serial.Strategy = hcl.RepairRebuild
	serial.Workers = 1
	want := runMixed(t, serial, edges)

	for _, w := range workerSweep[1:] {
		_, par := buildPair(t, g, lm)
		par.Strategy = hcl.RepairRebuild
		par.Workers = w
		got := runMixed(t, par, edges)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d: op %d stats diverged: got %+v, want %+v", w, i, got[i], want[i])
			}
		}
		if err := serial.EqualLabels(par); err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
	}
}

// TestRepairTimerObservesTasks checks the per-task timer hook fires once
// per landmark task from the fan, for both serial and parallel widths.
func TestRepairTimerObservesTasks(t *testing.T) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		g := testutil.RandomConnectedGraph(40, 60, 7)
		lm := landmark.ByDegree(g, 3)
		_, u := buildPair(t, g, lm)
		u.Workers = w
		var calls atomic.Int64
		u.RepairTimer = func(time.Duration) { calls.Add(1) }
		e := testutil.NonEdges(g, 1, 5)[0]
		if _, err := u.InsertEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != int64(len(lm)) {
			t.Fatalf("workers %d: timer observed %d tasks, want %d", w, got, len(lm))
		}
	}
}

// TestParallelRepairQueriesExact spot-checks that a parallel repair leaves
// an exact oracle behind, independent of the serial comparison.
func TestParallelRepairQueriesExact(t *testing.T) {
	g := testutil.RandomConnectedGraph(45, 65, 21)
	lm := landmark.ByDegree(g, 4)
	_, u := buildPair(t, g, lm)
	u.Workers = 0 // GOMAXPROCS
	runMixed(t, u, testutil.NonEdges(g, 10, 77))
	oracle := testutil.AllPairsOracle(u.G)
	n := u.G.NumVertices()
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if got := u.Query(uint32(x), uint32(y)); got != oracle[x][y] {
				t.Fatalf("Query(%d,%d) = %d, BFS %d", x, y, got, oracle[x][y])
			}
		}
	}
	if err := u.VerifyCover(); err != nil {
		t.Fatal(err)
	}
}
