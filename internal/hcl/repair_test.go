package hcl

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/testutil"
)

// rebuildAll runs the covered-flag rebuild of every landmark of idx through
// the repair engine, as DecHL does for the affected ones, and returns the
// merged deltas.
func rebuildAll(idx *Index) []Delta {
	ds := make([]Delta, idx.NumLandmarks())
	for r := range ds {
		ds[r].Rank = uint16(r)
	}
	Repair(&idx.Core, ds, true, func(ws *Scratch, _ int, d *Delta) {
		idx.RebuildBFS(ws, d, idx.G.Neighbors, idx.G.Neighbors)
	})
	return ds
}

// TestRepairRebuildAfterDeletion pins the engine's rebuild merge on a fork:
// cutting the path 0-…-6 between 3 and 4 with landmarks {0, 6} drops the
// entries of the far side of each landmark and resets the highway cell to
// Inf, which the two landmarks' tasks both propose and the merge writes
// (and counts) once.
func TestRepairRebuildAfterDeletion(t *testing.T) {
	idx, err := Build(pathGraph(7), []uint32{0, 6})
	if err != nil {
		t.Fatal(err)
	}
	f := idx.Fork(idx.G.Fork())
	if err := f.G.RemoveEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	ds := rebuildAll(f)
	var total Changes
	var touched []uint32
	for i := range ds {
		ch := ds[i].Changes()
		total.Added += ch.Added
		total.Removed += ch.Removed
		total.Highway += ch.Highway
		f.Touched(&ds[i], func(v uint32) { touched = append(touched, v) })
	}
	if want := (Changes{Removed: 5, Highway: 1}); total != want {
		t.Fatalf("changes %+v, want %+v", total, want)
	}
	if len(touched) != total.Total() {
		t.Fatalf("touched %v for %d changes", touched, total.Total())
	}
	if f.Highway(0, 1) != graph.Inf || f.Highway(1, 0) != graph.Inf {
		t.Fatalf("highway not reset: %d/%d", f.Highway(0, 1), f.Highway(1, 0))
	}
	if idx.Highway(0, 1) != 6 || idx.VerifyCover() != nil {
		t.Fatal("the rebuild wrote through to the parent")
	}
	if err := f.VerifyMinimal(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairWorkersAndTimer pins that a rebuild through the engine is the
// fresh build at every worker count, that an exact labelling rebuilds to no
// edits, and that the task timer sees every task.
func TestRepairWorkersAndTimer(t *testing.T) {
	for _, workers := range []int{1, 2, 0} {
		g := testutil.RandomConnectedGraph(300, 500, 13)
		lm := landmark.ByDegree(g, 6)
		idx, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		idx.Workers = workers
		idx.RepairTimer = func(time.Duration) { calls.Add(1) }
		for _, d := range rebuildAll(idx) {
			if ch := d.Changes(); ch.Total() != 0 {
				t.Fatalf("workers %d: rebuilding an exact labelling changed %+v", workers, ch)
			}
		}
		if got := calls.Load(); got != int64(len(lm)) {
			t.Fatalf("workers %d: timer saw %d tasks, want %d", workers, got, len(lm))
		}
		nb := g.Neighbors(lm[0])
		if err := g.RemoveEdge(lm[0], nb[0]); err != nil {
			t.Fatal(err)
		}
		rebuildAll(idx)
		if err := idx.VerifyMinimal(); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
	}
}
