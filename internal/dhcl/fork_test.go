package dhcl

import (
	"testing"

	"repro/internal/digraph"
	"repro/internal/hcl"
)

func forkFixture(t *testing.T) *Index {
	t.Helper()
	g := digraph.New(8)
	for i := 0; i < 8; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 7; i++ {
		g.MustAddEdge(i, i+1)
	}
	g.MustAddEdge(7, 0) // cycle keeps everything reachable both ways
	idx, err := Build(g, []uint32{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// highway copies the directed highway matrix row by row.
func highway(idx *Index) []uint32 {
	var out []uint32
	for i := range idx.Landmarks {
		out = append(out, idx.Row(uint16(i))...)
	}
	return out
}

func copyLabels(idx *Index, dir int) []hcl.Label {
	out := make([]hcl.Label, idx.Packed(dir).NumVertices())
	for v := range out {
		out[v] = append(hcl.Label(nil), idx.Label(dir, uint32(v))...)
	}
	return out
}

// TestForkUpdateIsolation runs full IncHL+/DecHL repairs on a fork and pins
// that the parent's labels, highway and graph stay untouched while the fork
// remains exact.
func TestForkUpdateIsolation(t *testing.T) {
	idx := forkFixture(t)
	lf, lb := copyLabels(idx, fwd), copyLabels(idx, bwd)
	hf := highway(idx)
	edges := idx.G.NumEdges()

	f := idx.Fork(idx.G.Fork())
	if _, err := f.InsertEdge(2, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DeleteEdge(3, 4); err != nil {
		t.Fatal(err)
	}

	for v := range lf {
		if !hcl.Label(idx.Label(fwd, uint32(v))).Equal(lf[v]) || !hcl.Label(idx.Label(bwd, uint32(v))).Equal(lb[v]) {
			t.Fatalf("parent labels of %d changed", v)
		}
	}
	for i, d := range highway(idx) {
		if d != hf[i] {
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
