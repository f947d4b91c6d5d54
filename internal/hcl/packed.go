package hcl

import (
	"repro/internal/arena"
	"repro/internal/cow"
	"repro/internal/fanout"
	"repro/internal/graph"
)

// The packed read representation. A labelling lives in two forms:
//
//   - The mutable build/update form, a cow.Table of entries — one entry
//     slice per vertex in chunks of 512. IncHL+/DecHL repairs mutate it in
//     place (copy-on-write on forks) and it stays the source of truth.
//
//   - The packed read form, Packed — the label entries of a vertex range
//     flattened into contiguous arenas indexed by a CSR offset table. A
//     query reads a label as one bounds-computed sub-slice of a shared
//     arena: no per-vertex pointer chase, no slice-header traffic, and the
//     garbage collector sees a handful of large arrays instead of millions
//     of tiny ones.
//
// Store publishes the packed form at epoch-commit time (see Index.Pack);
// any label write invalidates it, so a mutable index never serves stale
// packed data.
//
// The arena is chunked by vertex id ranges of packChunkLen so that
// repacking after a batch is proportional to the chunks the batch touched,
// not to |V|: Pack reuses every chunk of the previous epoch's Packed whose
// label-table chunk the fork never wrote, and rebuilds only the rest.

// packShift sets the chunk granularity of the packed arena: 1<<packShift
// vertices per chunk, the chunk of the label table, so one table chunk's
// copy-on-write state decides one arena chunk's reuse. At 512 vertices a
// churn write that touches a few scattered labels repacks tens of KB rather
// than hundreds, and a query's lookup costs the same at any chunk size.
const packShift = cow.Shift

// packChunkLen is the number of vertices covered by one arena chunk.
const packChunkLen = 1 << packShift

const packMask = packChunkLen - 1

// packChunk is the CSR slab of one vertex range: the entries of vertices
// [base, base+len(off)-1) laid out back to back, with off[i] the arena
// offset of the i-th vertex's first entry.
type packChunk struct {
	entries []Entry
	off     []uint32 // len = vertices in chunk + 1; off[0] == 0
}

// Packed is the CSR-flattened, read-only form of a label table. It is
// immutable once built and safe for any number of concurrent readers.
type Packed struct {
	chunks  []packChunk
	n       int   // vertices covered
	entries int64 // total entries across all chunks

	// ref pins the mmap'd checkpoint region some or all chunks alias (see
	// MapStream): while this Packed — or any later Packed that reused
	// one of its chunks — is reachable, the mapping stays alive. Nil for a
	// fully heap-resident arena.
	ref *arena.Mapping
}

// NumVertices returns the number of vertices the packed form covers.
func (p *Packed) NumVertices() int { return p.n }

// NumEntries returns the total number of label entries in the arena.
func (p *Packed) NumEntries() int64 { return p.entries }

// ArenaBytes is the storage charged for the packed form: EntryBytes per
// entry plus four bytes per offset slot, the accounting used by
// Stats.PackedBytes across all variants.
func (p *Packed) ArenaBytes() int64 {
	var off int64
	for i := range p.chunks {
		off += int64(len(p.chunks[i].off))
	}
	return p.entries*EntryBytes + off*4
}

// MappedBytes returns the size of the mmap'd region backing this arena,
// or 0 when it is fully heap-resident. The granularity is the whole
// mapping: chunks migrate to the heap one delta repack at a time, but the
// mapping is a single region that stays until the last aliasing snapshot
// drops.
func (p *Packed) MappedBytes() int64 {
	if p.ref == nil {
		return 0
	}
	return p.ref.Len()
}

// Label returns the entry span of vertex v — the packed equivalent of
// indexing the mutable label table. The span aliases the arena and must be
// treated as read-only.
func (p *Packed) Label(v uint32) []Entry {
	c := &p.chunks[v>>packShift]
	i := v & packMask
	return c.entries[c.off[i]:c.off[i+1]]
}

// Get returns the distance recorded for landmark rank r at vertex v.
func (p *Packed) Get(v uint32, r uint16) (graph.Dist, bool) {
	return FindEntry(p.Label(v), r)
}

// Pack flattens the label table L into the packed read form. prev makes it
// delta-aware for epoch publishes: it is the packed form of the parent L
// was forked from, and every chunk of L that is still the parent's (no
// label in it written since the fork) is reused from prev by reference —
// packing an epoch that touched k labels costs O(k · 512), not O(|V|).
// With prev nil every chunk is rebuilt.
func Pack(L *cow.Table[Entry], prev *Packed) *Packed {
	return PackParallel(L, prev, 1)
}

// PackParallel is Pack with the per-chunk flattening fanned across workers
// (0 = GOMAXPROCS, 1 = serial). The reuse decisions run serially first —
// one flag per chunk — and fix the exact rebuild set, then the touched
// chunks fill concurrently; each chunk is an independent slab, so the
// result is identical for every worker count. Entry totals are summed in
// chunk order after the barrier.
func PackParallel(L *cow.Table[Entry], prev *Packed, workers int) *Packed {
	n := L.Len()
	p := &Packed{chunks: make([]packChunk, L.NumChunks()), n: n}
	rebuild := make([]int, 0, len(p.chunks))
	for ci := range p.chunks {
		if prev != nil && L.ChunkShared(ci) {
			// Every label in the chunk is still the parent's — none was
			// written or added since the fork — so the parent's chunk is
			// byte-identical: share it. A reused chunk may alias
			// the parent's mapped checkpoint region, so the child inherits
			// the mapping reference — touched chunks are rebuilt onto the
			// heap below, which is the chunk-at-a-time migration off the
			// mapping.
			p.chunks[ci] = prev.chunks[ci]
			p.ref = prev.ref
			continue
		}
		rebuild = append(rebuild, ci)
	}
	fanout.Run(fanout.Resolve(workers), len(rebuild), func(_, t int) {
		ci := rebuild[t]
		rows := L.Chunk(ci)
		var cnt int
		for _, l := range rows {
			cnt += len(l)
		}
		c := packChunk{
			entries: make([]Entry, 0, cnt),
			off:     make([]uint32, len(rows)+1),
		}
		for i, l := range rows {
			c.off[i] = uint32(len(c.entries))
			c.entries = append(c.entries, l...)
		}
		c.off[len(rows)] = uint32(len(c.entries))
		p.chunks[ci] = c
	})
	for ci := range p.chunks {
		c := &p.chunks[ci]
		p.entries += int64(c.off[len(c.off)-1])
	}
	return p
}
