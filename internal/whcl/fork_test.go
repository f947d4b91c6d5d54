package whcl

import (
	"testing"

	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// TestForkUpdateIsolation runs full weighted IncHL+/DecHL repairs on a fork
// and pins that the parent's labels, highway and graph stay untouched while
// the fork remains exact.
func TestForkUpdateIsolation(t *testing.T) {
	g := wgraph.New(8)
	for i := 0; i < 8; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 7; i++ {
		g.MustAddEdge(i, i+1, 2)
	}
	g.MustAddEdge(0, 4, 5)
	idx, err := hcl.Build(g, []uint32{0, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]hcl.Label, idx.Packed(0).NumVertices())
	for v := range labels {
		labels[v] = append(hcl.Label(nil), idx.Label(0, uint32(v))...)
	}
	hw := append(append([]uint32(nil), idx.Row(0)...), idx.Row(1)...)
	edges := g.NumEdges()

	f := idx.Fork(idx.G.Fork())
	if _, err := f.InsertEdge(1, 6, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DeleteEdge(3, 4); err != nil {
		t.Fatal(err)
	}

	for v := range labels {
		if got := hcl.Label(idx.Label(0, uint32(v))); !got.Equal(labels[v]) {
			t.Fatalf("parent label of %d changed: %v != %v", v, got, labels[v])
		}
	}
	for i, d := range append(append([]uint32(nil), idx.Row(0)...), idx.Row(1)...) {
		if d != hw[i] {
			t.Fatalf("parent highway cell %d changed", i)
		}
	}
	if idx.G.NumEdges() != edges || idx.G.NumVertices() != 8 {
		t.Fatalf("parent graph changed: %d edges, %d vertices", idx.G.NumEdges(), idx.G.NumVertices())
	}
	if err := idx.VerifyCover(); err != nil {
		t.Fatalf("parent no longer verifies: %v", err)
	}
	if err := f.VerifyCover(); err != nil {
		t.Fatalf("fork does not verify: %v", err)
	}
}
