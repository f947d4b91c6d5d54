package hcl

import (
	"repro/internal/arena"
	"repro/internal/bitset"
	"repro/internal/fanout"
	"repro/internal/graph"
)

// The packed read representation. A labelling lives in two forms:
//
//   - The mutable build/update form, []Label — one heap-allocated entry
//     slice per vertex. IncHL+/DecHL repairs mutate it in place (under
//     copy-on-write ownership on forks) and it stays the source of truth.
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
// vertices are all still shared with the parent fork (their copy-on-write
// bits are set), and rebuilds only the rest.

// packShift sets the chunk granularity of the packed arena: 1<<packShift
// vertices per chunk. 4096 vertices balances repack granularity (an epoch
// touching k vertices rebuilds at most k, plus partial-chunk overlap)
// against per-chunk bookkeeping.
const packShift = 12

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

// PackLabels flattens labels into a fresh packed form, one pass per chunk.
func PackLabels(labels []Label) *Packed {
	return Pack(labels, nil, nil)
}

// Pack flattens labels into the packed read form. prev and shared make it
// delta-aware for epoch publishes: prev is the packed form of the parent
// the label table was forked from and shared its copy-on-write bitset (a
// set bit marks a label still backed by the parent). Chunks whose vertices
// are all still shared are reused from prev by reference — packing an
// epoch that touched k vertices costs O(k + touched-chunk slack), not
// O(|V|). With prev or shared nil every chunk is rebuilt.
func Pack(labels []Label, prev *Packed, shared *bitset.Set) *Packed {
	return PackParallel(labels, prev, shared, 1)
}

// PackParallel is Pack with the per-chunk flattening fanned across workers
// (0 = GOMAXPROCS, 1 = serial). The reuse decisions run serially first —
// they are cheap bitset scans and fix the exact rebuild set — then the
// touched chunks fill concurrently; each chunk is an independent slab, so
// the result is identical for every worker count. Entry totals are summed
// in chunk order after the barrier.
func PackParallel(labels []Label, prev *Packed, shared *bitset.Set, workers int) *Packed {
	n := len(labels)
	p := &Packed{
		chunks: make([]packChunk, (n+packChunkLen-1)/packChunkLen),
		n:      n,
	}
	rebuild := make([]int, 0, len(p.chunks))
	for ci := range p.chunks {
		lo := ci * packChunkLen
		hi := min(lo+packChunkLen, n)
		if prev != nil && shared != nil && hi <= prev.n && shared.AllSet(lo, hi) {
			// Every label in [lo,hi) is still the parent's: the parent's
			// chunk is byte-identical, share it. A reused chunk may alias
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
		lo := ci * packChunkLen
		hi := min(lo+packChunkLen, n)
		var cnt int
		for _, l := range labels[lo:hi] {
			cnt += len(l)
		}
		c := packChunk{
			entries: make([]Entry, 0, cnt),
			off:     make([]uint32, hi-lo+1),
		}
		for i, l := range labels[lo:hi] {
			c.off[i] = uint32(len(c.entries))
			c.entries = append(c.entries, l...)
		}
		c.off[hi-lo] = uint32(len(c.entries))
		p.chunks[ci] = c
	})
	for ci := range p.chunks {
		c := &p.chunks[ci]
		p.entries += int64(c.off[len(c.off)-1])
	}
	return p
}
