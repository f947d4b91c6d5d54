package hcl

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
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

// TestPackLabelsRoundTrip pins that the packed form reproduces every label
// span exactly, across chunk boundaries (n > packChunkLen forces several
// chunks, including a partial last one).
func TestPackLabelsRoundTrip(t *testing.T) {
	n := 2*packChunkLen + 123
	labels := randomLabels(n, 6, 1)
	p := PackLabels(labels)
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

// TestPackDeltaReusesChunks pins the delta-aware repack: chunks whose
// vertices were untouched since the parent pack are shared by reference,
// touched chunks are rebuilt, and the repacked form still answers from the
// new labels.
func TestPackDeltaReusesChunks(t *testing.T) {
	n := 3 * packChunkLen
	labels := randomLabels(n, 5, 2)
	parent := PackLabels(labels)

	// Fork-style state: all labels shared, then touch two vertices in the
	// middle chunk the way Index.ownLabel does.
	forked := append([]Label(nil), labels...)
	shared := bitset.NewAllSet(n)
	for _, v := range []uint32{uint32(packChunkLen) + 7, uint32(packChunkLen) + 900} {
		forked[v] = append(Label(nil), forked[v]...).Set(3, 9)
		shared.Clear(v)
	}

	repacked := Pack(forked, parent, shared)
	if !repacked.chunkSharedWith(parent, 0) {
		t.Error("untouched chunk 0 was rebuilt")
	}
	if repacked.chunkSharedWith(parent, 1) {
		t.Error("touched chunk 1 was shared with the parent")
	}
	if !repacked.chunkSharedWith(parent, 2) {
		t.Error("untouched chunk 2 was rebuilt")
	}
	for v := range forked {
		got := repacked.Label(uint32(v))
		if len(got) != len(forked[v]) {
			t.Fatalf("vertex %d: repacked span has %d entries, want %d", v, len(got), len(forked[v]))
		}
		for i := range got {
			if got[i] != forked[v][i] {
				t.Fatalf("vertex %d entry %d differs after delta repack", v, i)
			}
		}
	}

	// A grown label table (EnsureVertex) must never reuse a chunk beyond
	// the parent's coverage.
	grown := append(append([]Label(nil), forked...), randomLabels(100, 3, 3)...)
	shared.Grow(len(grown))
	p2 := Pack(grown, parent, shared)
	if p2.NumVertices() != len(grown) {
		t.Fatalf("grown pack covers %d vertices, want %d", p2.NumVertices(), len(grown))
	}
	if got := p2.Label(uint32(len(grown) - 1)); len(got) != len(grown[len(grown)-1]) {
		t.Fatal("grown pack lost the appended labels")
	}
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
