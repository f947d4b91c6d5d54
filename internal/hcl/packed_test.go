package hcl

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/testutil"
)

// sameArray reports whether two slices share their first element, or are
// both empty.
func sameArray[T any](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return &a[0] == &b[0]
}

// chunkSharedWith reports whether chunk ci of p is still chunk ci of o:
// the same base, overflow and span table.
func (p *Packed) chunkSharedWith(o *Packed, ci int) bool {
	if ci >= len(p.chunks) || ci >= len(o.chunks) {
		return false
	}
	a, b := &p.chunks[ci], &o.chunks[ci]
	return sameArray(a.base, b.base) && sameArray(a.own, b.own) && sameArray(a.spans, b.spans)
}

// randomLabels builds n sorted-by-rank labels with up to maxLen entries.
func randomLabels(n, maxLen int, seed int64) []Label {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]Label, n)
	for v := range labels {
		cnt := rng.Intn(maxLen + 1)
		var l Label
		r := 0
		for i := 0; i < cnt; i++ {
			r += 1 + rng.Intn(4)
			l = append(l, Entry{Rank: uint16(r), D: graph.Dist(rng.Intn(100))})
		}
		labels[v] = l
	}
	return labels
}

// edits returns one delta per rank setting, or removing where d is Inf,
// the given entries (vertex -> rank -> distance).
func edits(es map[uint32]map[uint16]graph.Dist) []Delta {
	var maxRank uint16
	for _, m := range es {
		for r := range m {
			maxRank = max(maxRank, r)
		}
	}
	ds := make([]Delta, maxRank+1)
	for r := range ds {
		ds[r].Rank = uint16(r)
	}
	for v, m := range es {
		for r, d := range m {
			ds[r].Set(v, d)
		}
	}
	return ds
}

// packOf returns a table holding labels, written through the merge path
// into an empty table.
func packOf(labels []Label) *Packed {
	es := map[uint32]map[uint16]graph.Dist{}
	for v, l := range labels {
		for _, e := range l {
			if es[uint32(v)] == nil {
				es[uint32(v)] = map[uint16]graph.Dist{}
			}
			es[uint32(v)][e.Rank] = e.D
		}
	}
	p := newPacked(len(labels))
	p.apply(edits(es), 0, 1)
	return &p
}

// checkPacked fails unless p holds exactly labels.
func checkPacked(t *testing.T, p *Packed, labels []Label) {
	t.Helper()
	if p.NumVertices() != len(labels) {
		t.Fatalf("NumVertices: %d, want %d", p.NumVertices(), len(labels))
	}
	var want int64
	for v, l := range labels {
		if got := p.Label(uint32(v)); !Label(got).Equal(l) {
			t.Fatalf("vertex %d: label %v, want %v", v, got, l)
		}
		want += int64(len(l))
	}
	if p.NumEntries() != want {
		t.Fatalf("NumEntries: %d, want %d", p.NumEntries(), want)
	}
}

// TestPackLabelsRoundTrip pins that a table written from empty reproduces
// every label exactly, across chunk boundaries (n > packChunkLen forces
// several chunks, including a partial last one), and that ArenaBytes
// charges its slots and spans.
func TestPackLabelsRoundTrip(t *testing.T) {
	n := 2*packChunkLen + 123
	labels := randomLabels(n, 6, 1)
	p := packOf(labels)
	checkPacked(t, p, labels)
	for v, l := range labels {
		for _, e := range l {
			if d, ok := FindEntry(p.Label(uint32(v)), e.Rank); !ok || d != e.D {
				t.Fatalf("vertex %d rank %d: %d,%v, want %d", v, e.Rank, d, ok, e.D)
			}
		}
	}
	if want := p.NumEntries()*entryStride + int64(n)*spanBytes; p.ArenaBytes() != want {
		t.Fatalf("ArenaBytes %d, want %d: a table built from empty holds no overflow", p.ArenaBytes(), want)
	}
}

// TestPackDeltaReusesChunks pins the copy-on-write economy of a fork:
// chunks of 512 labels the fork never wrote stay the parent's, a written
// chunk copies its span table but keeps the parent's base, and the fork
// answers from the new labels while the parent keeps the old ones.
func TestPackDeltaReusesChunks(t *testing.T) {
	if packChunkLen != 512 {
		t.Fatalf("chunks hold %d vertices, want 512", packChunkLen)
	}
	n := 3*packChunkLen + 100 // a partial last chunk
	labels := randomLabels(n, 5, 2)
	parent := packOf(labels)

	forked := parent.Fork()
	want := append([]Label(nil), labels...)
	es := map[uint32]map[uint16]graph.Dist{}
	for _, v := range []uint32{packChunkLen + 7, packChunkLen + 500} {
		es[v] = map[uint16]graph.Dist{3: 9}
		want[v] = splice(nil, labels[v], []Entry{{Rank: 3, D: 9}})
	}
	forked.apply(edits(es), 0, 1)
	for ci, shared := range []bool{true, false, true, true} {
		if got := forked.chunkSharedWith(parent, ci); got != shared {
			t.Errorf("chunk %d shared with the parent: %v, want %v", ci, got, shared)
		}
	}
	if !sameArray(forked.chunks[1].base, parent.chunks[1].base) {
		t.Error("a small write copied the chunk's base")
	}
	checkPacked(t, &forked, want)
	checkPacked(t, parent, labels)

	// A grown table lengthens only its last chunk.
	grown := parent.Fork()
	grown.grow(n + 1)
	if grown.chunkSharedWith(parent, 3) || !grown.chunkSharedWith(parent, 2) {
		t.Fatal("grow copied the wrong chunks")
	}
	checkPacked(t, &grown, append(labels[:n:n], nil))
	checkPacked(t, parent, labels)
}

// TestPackOverflowRebuild pins the two ways a write stores labels: a chunk
// appends rewritten labels to its overflow until the overflow would pass a
// quarter of its base, and is then laid out afresh with an empty overflow.
// The labels here make the quarter larger than overflowMin.
// Writes on a chunk the table owns already reuse its arrays.
func TestPackOverflowRebuild(t *testing.T) {
	labels := randomLabels(packChunkLen, 8, 3)
	p := packOf(labels)
	base := len(p.chunks[0].base)
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 40; round++ {
		f := p.Fork()
		es := map[uint32]map[uint16]graph.Dist{}
		for k := 0; k < 8; k++ {
			v := uint32(rng.Intn(packChunkLen))
			r := uint16(1 + rng.Intn(30))
			d := graph.Dist(rng.Intn(50))
			if rng.Intn(3) == 0 {
				d = graph.Inf
			}
			if es[v] == nil {
				es[v] = map[uint16]graph.Dist{}
			}
			es[v][r] = d
			labels[v] = splice(nil, labels[v], []Entry{{Rank: r, D: d}})
		}
		f.apply(edits(es), 0, 1)
		checkPacked(t, &f, labels)
		c := &f.chunks[0]
		if len(c.own) > len(c.base)/4 {
			t.Fatalf("round %d: overflow %d past a quarter of base %d", round, len(c.own), len(c.base))
		}
		p = &f
	}
	if len(p.chunks[0].base) == base && len(p.chunks[0].own) == 0 {
		t.Fatal("forty rounds of writes never used the overflow")
	}

	// A second write to a chunk the fork owns reuses its span table.
	f := p.Fork()
	f.apply(edits(map[uint32]map[uint16]graph.Dist{1: {40: 1}}), 0, 1)
	spans := f.chunks[0].spans
	f.apply(edits(map[uint32]map[uint16]graph.Dist{2: {40: 1}}), 0, 1)
	if !sameArray(f.chunks[0].spans, spans) {
		t.Fatal("an owned chunk's span table was copied")
	}
}

// TestIndexPackLifecycle pins that a labelling is packed from Build on:
// PackedBytes charges the table, Pack changes nothing, and label writes
// keep the table the one queries read.
func TestIndexPackLifecycle(t *testing.T) {
	g := testutil.RandomConnectedGraph(300, 600, 5)
	idx, err := Build(g, []uint32{3, 50, 99}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Packed(0) != idx.PackedLabels() || idx.PackedBytes() != idx.PackedLabels().ArenaBytes() || idx.PackedBytes() == 0 {
		t.Fatalf("PackedBytes %d, table %d", idx.PackedBytes(), idx.PackedLabels().ArenaBytes())
	}
	before := make([]graph.Dist, 0, 300)
	for v := uint32(0); v < 300; v++ {
		before = append(before, idx.Query(0, v))
	}
	idx.Pack()
	for v := uint32(0); v < 300; v++ {
		if got := idx.Query(0, v); got != before[v] {
			t.Fatalf("Query(0,%d) = %d after Pack, %d before", v, got, before[v])
		}
	}
	idx.SetEntry(7, 1, 2)
	if d, ok := idx.Entry(0, 7, 1); !ok || d != 2 {
		t.Fatalf("written entry reads %d,%v", d, ok)
	}
	if idx.PackedBytes() != idx.PackedLabels().ArenaBytes() {
		t.Fatal("PackedBytes no longer charges the table after a write")
	}
}
