package cow

import (
	"math/rand"
	"slices"
	"testing"
)

// fill returns a plain table of n rows, row v holding v and v+1.
func fill(n int) Table[uint32] {
	var t Table[uint32]
	t.Grow(n)
	for v := uint32(0); int(v) < n; v++ {
		t.Append(v, v)
		t.Append(v, v+1)
	}
	return t
}

// set rewrites row v of t to row.
func set[T any](t *Table[T], v uint32, row []T) {
	t.Write(int(v>>Shift), []uint32{v & mask}, []uint32{uint32(len(row))}, func(_ int, dst []T) { copy(dst, row) })
}

// sameArray reports whether two slices share their first element, or are
// both empty.
func sameArray[T any](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return &a[0] == &b[0]
}

// shared reports whether chunk ci of t is still the one it was forked
// with: it owns neither its span table nor its base.
func (t *Table[T]) shared(ci int) bool { return t.chunks[ci].owned == 0 }

// TestForkIsolation pins the copy-on-write contract: writes and growth on
// a fork never show through the parent, and untouched rows keep sharing
// their memory.
func TestForkIsolation(t *testing.T) {
	const n = 3*ChunkLen + 17
	p := fill(n)
	f := p.Fork()
	for _, v := range []uint32{5, ChunkLen + 1, n - 1} {
		f.Append(v, 99)
	}
	f.Grow(n + 600)
	set(&f, n+3, []uint32{7})

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
	if got := f.Row(ChunkLen + 19); len(got) != 0 {
		t.Errorf("grown row: %v, want empty", got)
	}
}

// TestChunkShared pins the per-chunk verdict writes and Grow copy chunks
// by: only chunks with no written and no added row stay shared.
func TestChunkShared(t *testing.T) {
	const n = 2*ChunkLen + 10
	p := fill(n)
	for ci := range 3 {
		if p.shared(ci) {
			t.Fatalf("chunk %d: a table that was never forked shares nothing", ci)
		}
	}
	f := p.Fork()
	f.Append(ChunkLen+3, 1)
	f.Grow(n + 1)
	for ci, want := range []bool{true, false, false} {
		if got := f.shared(ci); got != want {
			t.Errorf("chunk %d shared: %v, want %v", ci, got, want)
		}
	}
	// A grandchild shares its parent's own chunks.
	g := f.Fork()
	if !g.shared(1) || !g.shared(2) {
		t.Error("a fork of a fork must start sharing every chunk")
	}
}

// TestOverflowRebuild pins the two ways a write stores rows: a chunk
// appends rewritten rows to its overflow until the overflow would pass a
// quarter of its base, and is then laid out afresh with an empty overflow.
// The rows here make the quarter larger than overflowMin. Writes on a chunk
// the table owns already reuse its arrays, and a first write on a fork
// keeps the parent's base.
func TestOverflowRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var p Table[uint32]
	p.Grow(ChunkLen)
	verts, lens := make([]uint32, ChunkLen), make([]uint32, ChunkLen)
	for i := range verts {
		verts[i], lens[i] = uint32(i), uint32(rng.Intn(9))
	}
	p.Write(0, verts, lens, func(k int, dst []uint32) {
		for j := range dst {
			dst[j] = uint32(k)
		}
	})
	base, grew := len(p.chunks[0].base), false
	for round := 0; round < 40; round++ {
		f := p.Fork()
		for k := 0; k < 8; k++ {
			v := uint32(rng.Intn(ChunkLen))
			if len(f.Row(v)) > 0 && rng.Intn(3) == 0 {
				f.Remove(v, rng.Intn(len(f.Row(v))))
			} else {
				f.Append(v, uint32(round))
			}
		}
		c := &f.chunks[0]
		if len(c.own) > len(c.base)/4 {
			t.Fatalf("round %d: overflow %d past a quarter of base %d", round, len(c.own), len(c.base))
		}
		if round == 0 && !sameArray(c.base, p.chunks[0].base) {
			t.Fatal("a small first write on a fork copied the chunk's base")
		}
		grew = grew || len(c.own) > 0
		p = f
	}
	if !grew || len(p.chunks[0].base) == base {
		t.Fatalf("forty rounds of writes: overflow used %v, base %d → %d", grew, base, len(p.chunks[0].base))
	}

	// A second write to a chunk the fork owns reuses its span table.
	f := p.Fork()
	f.Append(1, 40)
	spans := f.chunks[0].spans
	f.Append(2, 40)
	if !sameArray(f.chunks[0].spans, spans) {
		t.Fatal("an owned chunk's span table was copied")
	}
}

// TestRandomOpsMatchSlices drives random writes and growth against a
// [][]T model: tables built empty and by FromCSR over a base they do not
// own, forks of forks, growth inside a partial last chunk, batched writes
// and rows long enough to force rebuilds. After every op, every earlier
// generation must still hold exactly the rows it had when it was forked.
func TestRandomOpsMatchSlices(t *testing.T) {
	for _, start := range []string{"empty", "csr"} {
		t.Run(start, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var tab Table[uint32]
			var want [][]uint32
			var frozen, pristine []uint32 // a base the table must never write, and its copy
			if start == "csr" {
				n := 3*ChunkLen + 77
				off := make([]uint32, n+1)
				for v := range n {
					row := make([]uint32, rng.Intn(6))
					for j := range row {
						row[j] = rng.Uint32()
					}
					want = append(want, row)
					frozen = append(frozen, row...)
					off[v+1] = uint32(len(frozen))
				}
				tab = FromCSR(off, frozen, false)
				pristine = slices.Clone(frozen)
			}
			var gens []Table[uint32]
			var wants [][][]uint32
			// check compares generations from the i-th on with the model.
			check := func(step, from int) {
				if !slices.Equal(frozen, pristine) {
					t.Fatalf("step %d: the table wrote a base it does not own", step)
				}
				for i := max(from, 0); i < len(gens); i++ {
					if gens[i].Len() != len(wants[i]) {
						t.Fatalf("step %d: generation %d: %d rows, want %d", step, i, gens[i].Len(), len(wants[i]))
					}
					for v := range wants[i] {
						if got := gens[i].Row(uint32(v)); !slices.Equal(got, wants[i][v]) {
							t.Fatalf("step %d: generation %d row %d: %v, want %v", step, i, v, got, wants[i][v])
						}
					}
				}
			}
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(100); {
				case op < 4 || tab.Len() == 0:
					// Mostly growth inside the last chunk, now and then past it.
					n := tab.Len() + 1 + rng.Intn(40)
					if rng.Intn(4) == 0 {
						n += ChunkLen
					}
					tab.Grow(n)
					for len(want) < n {
						want = append(want, nil)
					}
				case op < 8:
					gens, wants = append(gens, tab), append(wants, want)
					tab = tab.Fork()
					want = slices.Clone(want)
				case op < 12:
					// A batch over one chunk, one row long enough to force
					// a rebuild.
					ci := rng.Intn((tab.Len() + mask) >> Shift)
					live := min(ChunkLen, tab.Len()-ci<<Shift)
					var verts, lens []uint32
					for i := 0; i < live; i += 1 + rng.Intn(60) {
						verts = append(verts, uint32(i))
						lens = append(lens, uint32(rng.Intn(5)))
					}
					lens[rng.Intn(len(lens))] = uint32(200 + rng.Intn(400))
					for k, i := range verts {
						row := make([]uint32, lens[k])
						for j := range row {
							row[j] = uint32(step + j)
						}
						want[ci<<Shift+int(i)] = row
					}
					tab.Write(ci, verts, lens, func(k int, dst []uint32) {
						copy(dst, want[ci<<Shift+int(verts[k])])
					})
				default:
					v := uint32(rng.Intn(tab.Len()))
					w := slices.Clone(want[v])
					if last := len(w) - 1; last >= 0 && rng.Intn(3) == 0 {
						j := rng.Intn(len(w))
						tab.Remove(v, j)
						w[j] = w[last]
						w = w[:last]
					} else {
						tab.Append(v, uint32(step))
						w = append(w, uint32(step))
					}
					want[v] = w
				}
				// After every op the parent must be unchanged; every
				// generation is checked now and then.
				if step%256 == 0 {
					check(step, 0)
				} else {
					check(step, len(gens)-1)
				}
			}
			gens, wants = append(gens, tab), append(wants, want)
			check(-1, 0)
			c := tab.Clone()
			c.Append(0, 1)
			if slices.Equal(c.Row(0), tab.Row(0)) {
				t.Fatal("Clone shares rows with its source")
			}
		})
	}
}
