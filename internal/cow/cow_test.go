package cow

import (
	"math/rand"
	"slices"
	"testing"
)

// fill returns a plain table of n rows, row v holding v and v+1.
func fill(n int) Table[uint32] {
	t := Make[uint32](n)
	for v := uint32(0); int(v) < n; v++ {
		*t.Mut(v) = []uint32{v, v + 1}
	}
	return t
}

// TestForkIsolation pins the copy-on-write contract: writes and growth on
// a fork never show through the parent, and untouched rows keep sharing
// their backing arrays.
func TestForkIsolation(t *testing.T) {
	const n = 3*ChunkLen + 17
	p := fill(n)
	f := p.Fork()
	for _, v := range []uint32{5, ChunkLen + 1, n - 1} {
		r := f.Mut(v)
		*r = append(*r, 99)
	}
	f.Grow(n + 600)
	*f.Mut(n + 3) = []uint32{7}

	if p.Len() != n || f.Len() != n+600 {
		t.Fatalf("lengths: parent %d, fork %d", p.Len(), f.Len())
	}
	for v := uint32(0); v < n; v++ {
		if got := p.Row(v); !slices.Equal(got, []uint32{v, v + 1}) {
			t.Fatalf("parent row %d changed: %v", v, got)
		}
	}
	if got := f.Row(ChunkLen + 1); !slices.Equal(got, []uint32{ChunkLen + 1, ChunkLen + 2, 99}) {
		t.Fatalf("fork write lost: %v", got)
	}
	if got := f.Row(n + 3); !slices.Equal(got, []uint32{7}) {
		t.Fatalf("fork growth lost: %v", got)
	}
	if &p.Row(6)[0] != &f.Row(6)[0] {
		t.Error("an untouched row was copied")
	}
	if &p.Row(5)[0] == &f.Row(5)[0] {
		t.Error("a written row still shares the parent's array")
	}
}

// TestRowPastLenPanics pins that a row past Len is an out-of-range index,
// not an empty row, on a plain table, on a fork, and after growth within the
// last chunk.
func TestRowPastLenPanics(t *testing.T) {
	p := fill(ChunkLen + 10)
	f := p.Fork()
	f.Grow(ChunkLen + 20)
	for _, c := range []struct {
		name string
		tab  *Table[uint32]
		v    uint32
	}{{"plain", &p, ChunkLen + 10}, {"fork", &f, ChunkLen + 20}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Row(%d) on %d rows did not panic", c.name, c.v, c.tab.Len())
				}
			}()
			c.tab.Row(c.v)
		}()
	}
	if got := f.Row(ChunkLen + 19); got != nil {
		t.Errorf("grown row: %v, want empty", got)
	}
}

// TestChunkShared pins the per-chunk verdict the packed repack reuses
// chunks by: only chunks with no written and no added row stay shared.
func TestChunkShared(t *testing.T) {
	const n = 2*ChunkLen + 10
	p := fill(n)
	if p.ChunkShared(0) {
		t.Fatal("a table that was never forked shares nothing")
	}
	f := p.Fork()
	f.Mut(ChunkLen + 3)
	f.Grow(n + 1)
	for ci, want := range []bool{true, false, false} {
		if got := f.ChunkShared(ci); got != want {
			t.Errorf("chunk %d shared: %v, want %v", ci, got, want)
		}
	}
	// A grandchild shares its parent's own chunks.
	g := f.Fork()
	if !g.ChunkShared(1) || !g.ChunkShared(2) {
		t.Error("a fork of a fork must start sharing every chunk")
	}
}

// TestRandomOpsMatchSlices drives forks of forks with random writes and
// growth against plain slice copies.
func TestRandomOpsMatchSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[uint32]
	var want [][]uint32
	var gens []Table[uint32]
	var wants [][][]uint32
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(100); {
		case op < 5 || tab.Len() == 0:
			n := tab.Len() + 1 + rng.Intn(300)
			tab.Grow(n)
			for len(want) < n {
				want = append(want, nil)
			}
		case op < 8:
			gens, wants = append(gens, tab), append(wants, want)
			tab = tab.Fork()
			want = slices.Clone(want)
		default:
			v := uint32(rng.Intn(tab.Len()))
			r := tab.Mut(v)
			if len(*r) > 0 && rng.Intn(3) == 0 {
				*r = (*r)[:len(*r)-1]
			} else {
				*r = append(*r, uint32(step))
			}
			want[v] = slices.Clone(*r)
		}
	}
	gens, wants = append(gens, tab), append(wants, want)
	for i := range gens {
		if gens[i].Len() != len(wants[i]) {
			t.Fatalf("generation %d: %d rows, want %d", i, gens[i].Len(), len(wants[i]))
		}
		for v := range wants[i] {
			if got := gens[i].Row(uint32(v)); !slices.Equal(got, wants[i][v]) {
				t.Fatalf("generation %d row %d: %v, want %v", i, v, got, wants[i][v])
			}
		}
	}
	c := tab.Clone()
	*c.Mut(0) = append(*c.Mut(0), 1)
	if slices.Equal(c.Row(0), tab.Row(0)) {
		t.Fatal("Clone shares rows with its source")
	}
}
