package hcl

import (
	"testing"

	"repro/internal/graph"
)

// SetEntry writes the entry of landmark rank r in L(v) through the repair
// merge, as a one-edit delta; RemoveEntry drops it.
func (idx *Labelled[G]) SetEntry(v uint32, r uint16, d graph.Dist) {
	idx.merge([]Delta{{Rank: r, ops: []labelOp{{v, d}}}}, false)
}

func (idx *Labelled[G]) RemoveEntry(v uint32, r uint16) { idx.SetEntry(v, r, graph.Inf) }

// forkFixture builds a small labelled index to fork.
func forkFixture(t *testing.T) *Labelled[*graph.Graph] {
	t.Helper()
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 7; i++ {
		g.MustAddEdge(i, i+1)
	}
	g.MustAddEdge(0, 4)
	idx, err := Build(g, []uint32{0, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// snapshotLabels captures a deep copy of the labelling for later comparison.
func snapshotLabels(idx *Labelled[*graph.Graph]) []Label {
	out := make([]Label, idx.Packed(0).NumVertices())
	for v := range out {
		out[v] = append(Label(nil), idx.Label(0, uint32(v))...)
	}
	return out
}

// TestForkLabelIsolation pins that label writes on a fork copy-on-write the
// touched label only and never change the parent's labelling or highway.
func TestForkLabelIsolation(t *testing.T) {
	idx := forkFixture(t)
	before := snapshotLabels(idx)
	hBefore := append([]graph.Dist(nil), idx.hw...)

	f := idx.Fork(idx.G.Fork())
	f.SetEntry(6, 0, 1)    // overwrite an entry in place (the dangerous path)
	f.SetEntry(7, 1, 9)    // insert a fresh entry
	f.RemoveEntry(5, 0)    // drop an entry
	f.setHighway(0, 1, 99) // highway write
	f.EnsureVertex(9)      // grow the fork's tables
	f.SetEntry(9, 0, 3)

	for v := range before {
		if !Label(idx.Label(0, uint32(v))).Equal(before[v]) {
			t.Fatalf("parent label of %d changed: %v != %v", v, idx.Label(0, uint32(v)), before[v])
		}
	}
	for i := range hBefore {
		if idx.hw[i] != hBefore[i] {
			t.Fatalf("parent highway cell %d changed", i)
		}
	}
	if idx.Packed(0).NumVertices() != 8 {
		t.Fatalf("parent label table grew to %d", idx.Packed(0).NumVertices())
	}
	if d, ok := f.Entry(0, 9, 0); !ok || d != 3 {
		t.Fatalf("fork entry (9,0): %d %v", d, ok)
	}
	if d, ok := f.Entry(0, 6, 0); !ok || d != 1 {
		t.Fatalf("fork overwrite (6,0): %d %v", d, ok)
	}
	if f.Highway(0, 1) != 99 || f.Highway(1, 0) != 99 {
		t.Fatalf("fork highway write lost: %d", f.Highway(0, 1))
	}
}

// TestForkSharesUntouchedLabels pins the economy of the fork: labels the
// fork never writes share their entries with the parent, those of the
// written vertex's chunk included.
func TestForkSharesUntouchedLabels(t *testing.T) {
	idx := forkFixture(t)
	f := idx.Fork(idx.G.Fork())
	f.SetEntry(6, 0, 1)
	touched, shared := 0, 0
	for v := uint32(0); int(v) < idx.Packed(0).NumVertices(); v++ {
		pl, fl := idx.Label(0, v), f.Label(0, v)
		if len(pl) == 0 {
			continue
		}
		if &pl[0] == &fl[0] {
			shared++
		} else {
			touched++
		}
	}
	if touched != 1 {
		t.Fatalf("expected exactly one copied label, got %d (shared %d)", touched, shared)
	}
	if shared == 0 {
		t.Fatal("no labels shared with the parent — copy-on-write is not sharing")
	}
}
