package hcl

import (
	"math/rand"
	"testing"

	"repro/internal/cow"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// chunkSharedWith reports whether chunk ci of p reuses chunk ci of o by
// reference — i.e. a delta repack left it shared with the parent.
func (p *Packed) chunkSharedWith(o *Packed, ci int) bool {
	if ci >= len(p.chunks) || ci >= len(o.chunks) {
		return false
	}
	a, b := p.chunks[ci].entries, o.chunks[ci].entries
	if len(a) == 0 || len(b) == 0 {
		// Empty arenas carry no distinguishing pointer; compare the
		// offset tables instead.
		return len(a) == len(b) && len(p.chunks[ci].off) > 0 && len(o.chunks[ci].off) > 0 &&
			&p.chunks[ci].off[0] == &o.chunks[ci].off[0]
	}
	return len(a) == len(b) && &a[0] == &b[0]
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

// table returns a label table holding labels.
func table(labels []Label) *cow.Table[Entry] {
	t := cow.Make[Entry](len(labels))
	for v, l := range labels {
		*t.Mut(uint32(v)) = l
	}
	return &t
}

// TestPackLabelsRoundTrip pins that the packed form reproduces every label
// span exactly, across chunk boundaries (n > packChunkLen forces several
// chunks, including a partial last one).
func TestPackLabelsRoundTrip(t *testing.T) {
	n := 2*packChunkLen + 123
	labels := randomLabels(n, 6, 1)
	p := Pack(table(labels), nil)
	if p.NumVertices() != n {
		t.Fatalf("NumVertices: %d, want %d", p.NumVertices(), n)
	}
	var want int64
	for v, l := range labels {
		got := p.Label(uint32(v))
		if len(got) != len(l) {
			t.Fatalf("vertex %d: packed span has %d entries, want %d", v, len(got), len(l))
		}
		for i := range l {
			if got[i] != l[i] {
				t.Fatalf("vertex %d entry %d: %v vs %v", v, i, got[i], l[i])
			}
		}
		want += int64(len(l))
		for _, e := range l {
			d, ok := p.Get(uint32(v), e.Rank)
			if !ok || d != e.D {
				t.Fatalf("vertex %d rank %d: Get = %d,%v, want %d", v, e.Rank, d, ok, e.D)
			}
		}
		if _, ok := p.Get(uint32(v), 60000); ok {
			t.Fatalf("vertex %d: Get of absent rank succeeded", v)
		}
	}
	if p.NumEntries() != want {
		t.Fatalf("NumEntries: %d, want %d", p.NumEntries(), want)
	}
	if p.ArenaBytes() <= want*EntryBytes {
		t.Fatalf("ArenaBytes %d must charge the offset index on top of %d entry bytes", p.ArenaBytes(), want*EntryBytes)
	}
}

// TestPackDeltaReusesChunks pins the delta-aware repack: chunks of 512
// labels the fork never wrote are shared with the parent's arena by
// reference, touched chunks are rebuilt, and the repacked form still
// answers from the new labels.
func TestPackDeltaReusesChunks(t *testing.T) {
	if packChunkLen != 512 {
		t.Fatalf("packed chunks hold %d vertices, want 512", packChunkLen)
	}
	n := 3*packChunkLen + 100 // a partial last chunk
	labels := randomLabels(n, 5, 2)
	parentTable := table(labels)
	parent := Pack(parentTable, nil)

	// Touch two vertices in the second chunk of a fork, the way the repair
	// merge writes labels.
	forked := parentTable.Fork()
	for _, v := range []uint32{packChunkLen + 7, packChunkLen + 500} {
		l := forked.Mut(v)
		*l = Label(*l).Set(3, 9)
		labels[v] = append(Label(nil), labels[v]...).Set(3, 9)
	}

	repacked := Pack(&forked, parent)
	for ci, want := range []bool{true, false, true, true} {
		if got := repacked.chunkSharedWith(parent, ci); got != want {
			t.Errorf("chunk %d shared with the parent: %v, want %v", ci, got, want)
		}
	}
	checkPacked := func(p *Packed, labels []Label) {
		t.Helper()
		for v := range labels {
			got := p.Label(uint32(v))
			if len(got) != len(labels[v]) {
				t.Fatalf("vertex %d: repacked span has %d entries, want %d", v, len(got), len(labels[v]))
			}
			for i := range got {
				if got[i] != labels[v][i] {
					t.Fatalf("vertex %d entry %d differs after delta repack", v, i)
				}
			}
		}
	}
	checkPacked(repacked, labels)

	// A grown label table (EnsureVertex) must never reuse a chunk beyond
	// the parent's coverage, even one it never wrote.
	grownTable := parentTable.Fork()
	grownTable.Grow(n + 1)
	p2 := Pack(&grownTable, parent)
	if p2.NumVertices() != n+1 || p2.chunkSharedWith(parent, 3) || !p2.chunkSharedWith(parent, 2) {
		t.Fatalf("grown pack: %d vertices, last chunk reused %v", p2.NumVertices(), p2.chunkSharedWith(parent, 3))
	}
	checkPacked(p2, append(randomLabels(n, 5, 2), nil))
}

// TestIndexPackLifecycle pins the publish contract on a real index: Build
// leaves the index unpacked, Pack freezes it, a label write drops the
// packed form, and packed and slice reads answer identically throughout.
func TestIndexPackLifecycle(t *testing.T) {
	g := testutil.RandomConnectedGraph(300, 600, 5)
	idx, err := Build(g, []uint32{3, 50, 99})
	if err != nil {
		t.Fatal(err)
	}
	if idx.PackedLabels() != nil {
		t.Fatal("freshly built index must start unpacked")
	}
	slice := make([]graph.Dist, 0, 300)
	for v := uint32(0); v < 300; v++ {
		slice = append(slice, idx.Query(0, v))
	}
	idx.Pack()
	if idx.PackedLabels() == nil || idx.Packed(0) != idx.PackedLabels() {
		t.Fatal("Pack left the index unpacked")
	}
	if idx.PackedBytes() != idx.PackedLabels().ArenaBytes() {
		t.Fatalf("PackedBytes %d, arena %d", idx.PackedBytes(), idx.PackedLabels().ArenaBytes())
	}
	idx.Pack() // idempotent
	for v := uint32(0); v < 300; v++ {
		if got := idx.Query(0, v); got != slice[v] {
			t.Fatalf("packed Query(0,%d) = %d, slice form said %d", v, got, slice[v])
		}
	}
	idx.SetEntry(7, 1, 2)
	if idx.PackedLabels() != nil || idx.PackedBytes() != 0 {
		t.Fatal("label write must drop the packed form")
	}
}
