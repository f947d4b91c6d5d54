package hcl

import (
	"slices"

	"repro/internal/arena"
	"repro/internal/bitset"
	"repro/internal/cow"
	"repro/internal/fanout"
	"repro/internal/graph"
)

// The label store. A labelling keeps every label direction in one form,
// Packed: the label entries of each 512-vertex range laid out back to back
// in a chunk, with one span per vertex naming its entries. Queries read a
// label as one bounds-computed sub-slice of its chunk, the repair merge
// writes the chunks, and the stream codec writes and reads them directly.
// The garbage collector sees a few arrays per chunk, not one per vertex.
//
// The table is copy-on-write. Fork copies the chunk directory and clears
// the table's ownership bits, so a fork and its parent share every chunk
// until the fork first writes one. That write copies the chunk's span
// table and its overflow (see packChunk), and appends the rewritten labels
// to the overflow; the chunk's base entries stay shared, or mapped. When
// the overflow would outgrow a quarter of the base (and overflowMin), the
// write instead lays the whole chunk out afresh in one new base. A write
// therefore copies what it touches plus a few KiB per chunk, while the
// parent keeps serving reads from memory the fork never writes. Arrays the
// table owns are written in place: a rewritten label of unchanged length
// is overwritten where it sits.
//
// Snapshot discipline: a table must not be written once it has been
// forked; only the newest fork is.

// packShift sets the chunk granularity: 1<<packShift vertices per chunk,
// the granularity of every other copy-on-write table (internal/cow). At
// 512 vertices a chunk's span table is 4 KiB, and a query's lookup costs
// the same at any chunk size.
const packShift = cow.Shift

// packChunkLen is the number of vertices covered by one chunk.
const packChunkLen = 1 << packShift

const packMask = packChunkLen - 1

// overflowMin is the overflow, in entries, a chunk may hold whatever its
// base: a small chunk is not laid out afresh for every write.
const overflowMin = 64

// ownBit marks a span that indexes a chunk's overflow rather than its base.
const ownBit = 1 << 31

// span locates one vertex's entries in its chunk: [lo, hi) of the base, or
// of the overflow when lo carries ownBit. The zero span is an empty label.
type span struct{ lo, hi uint32 }

// packChunk is the label store of one vertex range. base holds labels laid
// out in vertex order when the chunk was last built; it is never written
// in place and may alias a mapped checkpoint. own, the overflow, holds the
// labels rewritten since, each appended whole; it may hold dead labels a
// later write superseded. spans has one entry per vertex of the range.
type packChunk struct {
	base  []Entry
	own   []Entry
	spans []span
}

// label returns the entries of the chunk's i-th vertex.
func (c *packChunk) label(i uint32) []Entry {
	s := c.spans[i]
	if s.lo&ownBit != 0 {
		return c.own[s.lo&^ownBit : s.hi]
	}
	return c.base[s.lo:s.hi]
}

// noSpans backs the span tables of empty chunks: every span empty. A chunk
// using it does not own its span table, so it never writes it.
var noSpans [packChunkLen]span

// Packed is one label direction: a copy-on-write table of chunks (see the
// file comment). Reads are safe for any number of concurrent readers;
// writes require exclusive access.
type Packed struct {
	chunks []packChunk

	// owned holds two bits per chunk, ownSpans and ownBase: set when the
	// chunk's span table and overflow, or its base, are this table's own
	// and written in place; clear when they may still be shared with the
	// table this one was forked from, or alias a mapping.
	owned *bitset.Set

	n       int   // vertices covered
	entries int64 // live entries across all chunks

	// ref pins the mmap'd checkpoint region base arrays may alias (see
	// MapStream): every fork inherits it, so the mapping stays alive while
	// any descendant may still read a mapped chunk. Nil for a labelling
	// that never aliased one.
	ref *arena.Mapping
}

// The ownership bits of chunk ci are bits 2ci+ownSpans and 2ci+ownBase of
// Packed.owned.
const (
	ownSpans = iota
	ownBase
)

// owns reports one ownership bit of chunk ci.
func (p *Packed) owns(ci, bit int) bool { return p.owned.Get(uint32(2*ci + bit)) }

// own sets one ownership bit of chunk ci.
func (p *Packed) own(ci, bit int) { p.owned.Set(uint32(2*ci + bit)) }

// newPacked returns a table of n empty labels.
func newPacked(n int) Packed {
	p := Packed{owned: bitset.New(0)}
	p.grow(n)
	return p
}

// NumVertices returns the number of vertices the table covers.
func (p *Packed) NumVertices() int { return p.n }

// NumEntries returns the number of label entries.
func (p *Packed) NumEntries() int64 { return p.entries }

// ArenaBytes is the memory the table holds for its labels: entryStride
// bytes per base and overflow slot, dead overflow labels included, plus
// one span per vertex. It is what Stats.PackedBytes reports.
func (p *Packed) ArenaBytes() int64 {
	var slots int64
	for i := range p.chunks {
		slots += int64(len(p.chunks[i].base) + len(p.chunks[i].own))
	}
	return slots*entryStride + int64(p.n)*spanBytes
}

// spanBytes is the size of one span.
const spanBytes = 8

// MappedBytes returns the size of the mmap'd region the table pins, or 0
// when it never aliased one. The granularity is the whole mapping: chunks
// move to the heap one rebuild at a time, but the mapping is one region
// that stays until the last aliasing snapshot drops.
func (p *Packed) MappedBytes() int64 {
	if p.ref == nil {
		return 0
	}
	return p.ref.Len()
}

// Label returns the entry span of vertex v. It aliases the table and must
// be treated as read-only.
func (p *Packed) Label(v uint32) []Entry {
	return p.chunks[v>>packShift].label(v & packMask)
}

// Fork returns a copy-on-write copy of the table: the chunk directory and
// clear ownership bits (see the file comment).
func (p *Packed) Fork() Packed {
	return Packed{chunks: slices.Clone(p.chunks), owned: bitset.New(2 * len(p.chunks)), n: p.n, entries: p.entries, ref: p.ref}
}

// grow extends the table to n vertices; the new labels are empty.
func (p *Packed) grow(n int) {
	if n <= p.n {
		return
	}
	if last := len(p.chunks) - 1; p.n&packMask != 0 {
		// Lengthen the partial last chunk's span table over the new
		// vertices, on a copy unless it is the table's own.
		c := &p.chunks[last]
		if !p.owns(last, ownSpans) {
			c.spans, c.own = slices.Clone(c.spans), slices.Clone(c.own)
			p.own(last, ownSpans)
		}
		live := min(packChunkLen, n-last<<packShift)
		c.spans = append(c.spans, noSpans[:live-len(c.spans)]...)
	}
	for lo := len(p.chunks) << packShift; lo < n; lo += packChunkLen {
		live := min(packChunkLen, n-lo)
		p.chunks = append(p.chunks, packChunk{spans: noSpans[:live:live]})
	}
	p.owned.Grow(2 * len(p.chunks)) // a new chunk owns nothing: it uses noSpans
	p.n = n
}

// piece is the run of one delta's label edits that falls in one chunk.
type piece struct {
	ci   int
	rank uint16
	ops  []labelOp
}

// chunkScratch is one worker's buffers for rewriting chunks: the chunk's
// edits bucketed by vertex, and the rewritten labels.
type chunkScratch struct {
	at    [packChunkLen]int32 // per vertex: edit count, then fill cursor; zero between chunks
	edits []Entry             // bucketed edits; D == Inf removes
	verts []uint32            // the rewritten vertices, chunk-relative, ascending
	out   []Entry             // the rewritten labels, back to back
	outs  []span              // per rewritten vertex: its range of out
}

var chunkScratches Pool[chunkScratch]

// apply writes the label edits of every delta of direction dir, in delta
// order: a later edit of the same vertex and rank wins. Each touched chunk
// is rewritten once, the chunks fanned across workers (0 = GOMAXPROCS, 1 =
// serial); the result does not depend on the worker count.
func (p *Packed) apply(ds []Delta, dir, workers int) {
	as := applyScratches.Get()
	defer applyScratches.Put(as)
	as.ops, as.pieces = as.ops[:0], as.pieces[:0]
	for i := range ds {
		d := &ds[i]
		if d.Dir != dir || len(d.ops) == 0 {
			continue
		}
		ops := d.ops
		if !slices.IsSortedFunc(ops, func(a, b labelOp) int { return int(a.v>>packShift) - int(b.v>>packShift) }) {
			ops = as.group(ops, len(p.chunks))
		}
		for len(ops) > 0 {
			ci, end := ops[0].v>>packShift, 1
			for end < len(ops) && ops[end].v>>packShift == ci {
				end++
			}
			as.pieces = append(as.pieces, piece{ci: int(ci), rank: d.Rank, ops: ops[:end]})
			ops = ops[end:]
		}
	}
	pieces := as.pieces
	if len(pieces) == 0 {
		return
	}
	// Group the pieces by chunk, keeping delta order within a chunk; the
	// t-th touched chunk's pieces are pieces[tasks[t]:tasks[t+1]].
	slices.SortStableFunc(pieces, func(a, b piece) int { return a.ci - b.ci })
	tasks := as.tasks[:0]
	for k := range pieces {
		if k == 0 || pieces[k].ci != pieces[k-1].ci {
			tasks = append(tasks, k)
		}
	}
	n := len(tasks)
	tasks = append(tasks, len(pieces))
	grown, rebuilt := cow.Grow(as.grown, n), cow.Grow(as.rebuilt, n)
	workers = min(fanout.Resolve(workers), n)
	scs := make([]*chunkScratch, workers)
	for i := range scs {
		scs[i] = chunkScratches.Get()
	}
	fanout.Run(workers, n, func(w, t int) {
		ci := pieces[tasks[t]].ci
		grown[t], rebuilt[t] = p.rewrite(ci, p.owns(ci, ownSpans), p.owns(ci, ownBase), pieces[tasks[t]:tasks[t+1]], scs[w])
	})
	for _, s := range scs {
		chunkScratches.Put(s)
	}
	for t := range n {
		ci := pieces[tasks[t]].ci
		p.own(ci, ownSpans)
		if rebuilt[t] {
			p.own(ci, ownBase)
		}
		p.entries += grown[t]
	}
	// The pooled pieces must not keep the deltas' edits alive.
	clear(pieces)
	as.tasks, as.grown, as.rebuilt = tasks, grown, rebuilt
}

// applyScratch is the buffers of one apply: the edits of deltas not in
// chunk order, regrouped; the bucket bounds of their counting sort; the
// pieces; and per touched chunk, the first of its pieces, its change in
// entries and whether it was laid out afresh.
type applyScratch struct {
	ops     []labelOp
	at      []int32
	pieces  []piece
	tasks   []int
	grown   []int64
	rebuilt []bool
}

var applyScratches Pool[applyScratch]

// group returns a copy of ops grouped by chunk in chunk order, each
// chunk's edits in their order in ops (a stable counting sort). The copy
// lives in as.ops until the next apply.
func (as *applyScratch) group(ops []labelOp, chunks int) []labelOp {
	at := cow.Grow(as.at, chunks+1)
	as.at = at
	clear(at)
	for _, op := range ops {
		at[op.v>>packShift+1]++
	}
	for ci := 1; ci < len(at); ci++ {
		at[ci] += at[ci-1]
	}
	lo := len(as.ops)
	as.ops = slices.Grow(as.ops, len(ops))[:lo+len(ops)]
	out := as.ops[lo:]
	for _, op := range ops {
		out[at[op.v>>packShift]] = op
		at[op.v>>packShift]++
	}
	return out
}

// rewrite applies the pieces of chunk ci and returns the change in its
// entry count and whether it laid the chunk out afresh. owned and based
// say whether the chunk's span table and overflow, and its base, are the
// table's own already; the former are copied first if not. Concurrent
// rewrites of distinct chunks are safe.
func (p *Packed) rewrite(ci int, owned, based bool, pieces []piece, ws *chunkScratch) (int64, bool) {
	c := &p.chunks[ci]
	// Bucket the edits by vertex, keeping delta order within a vertex. The
	// work is proportional to the edits, not to the chunk.
	at := &ws.at
	ws.verts = ws.verts[:0]
	total := 0
	for _, pc := range pieces {
		for _, op := range pc.ops {
			i := op.v & packMask
			if at[i] == 0 {
				ws.verts = append(ws.verts, i)
			}
			at[i]++
		}
		total += len(pc.ops)
	}
	slices.Sort(ws.verts)
	sum := int32(0)
	for _, i := range ws.verts {
		at[i], sum = sum, sum+at[i]
	}
	ws.edits = cow.Grow(ws.edits, total)
	for _, pc := range pieces {
		for _, op := range pc.ops {
			i := op.v & packMask
			ws.edits[at[i]] = Entry{Rank: pc.rank, D: op.d}
			at[i]++
		}
	}
	// at[i] is now the end of vertex i's edits, and so the start of the
	// next edited vertex's.
	ws.out, ws.outs = ws.out[:0], ws.outs[:0]
	var grown int64
	start := int32(0)
	for _, i := range ws.verts {
		ed := ws.edits[start:at[i]]
		start, at[i] = at[i], 0
		old := c.label(i)
		lo := len(ws.out)
		ws.out = splice(ws.out, old, rankOrder(ed))
		ws.outs = append(ws.outs, span{uint32(lo), uint32(len(ws.out))})
		grown += int64(len(ws.out)-lo) - int64(len(old))
	}
	if !owned {
		c.spans = slices.Clone(c.spans)
	}
	if len(c.base) == 0 || len(c.own)+len(ws.out) > max(len(c.base)/4, overflowMin) {
		c.rebuild(ws)
		return grown, true
	}
	if owned {
		c.own = slices.Grow(c.own, len(ws.out))
	} else {
		c.own = append(make([]Entry, 0, len(c.own)+len(ws.out)), c.own...)
	}
	c.patch(ws, based)
	return grown, false
}

// patch stores the rewritten labels of ws: over the old label where it
// has the same length and sits in the overflow, or in the base when based
// says the base is the table's own; appended to the overflow, which has
// room for all of them, otherwise.
func (c *packChunk) patch(ws *chunkScratch, based bool) {
	for k, i := range ws.verts {
		l := ws.out[ws.outs[k].lo:ws.outs[k].hi]
		if s := c.spans[i]; int(s.hi-s.lo&^ownBit) == len(l) && (s.lo&ownBit != 0 || based) {
			copy(c.label(i), l)
			continue
		}
		if len(l) == 0 {
			c.spans[i] = span{}
			continue
		}
		lo := len(c.own)
		c.own = append(c.own, l...)
		c.spans[i] = span{uint32(lo) | ownBit, uint32(len(c.own))}
	}
}

// rebuild lays the whole chunk out afresh in a new base, in vertex order:
// the rewritten labels of ws and every other label as it was. The overflow
// empties.
func (c *packChunk) rebuild(ws *chunkScratch) {
	n := len(ws.out)
	k := 0
	for i := range c.spans {
		if k < len(ws.verts) && ws.verts[k] == uint32(i) {
			k++
			continue
		}
		n += len(c.label(uint32(i)))
	}
	base := make([]Entry, 0, n)
	k = 0
	for i := range c.spans {
		l := c.label(uint32(i))
		if k < len(ws.verts) && ws.verts[k] == uint32(i) {
			l = ws.out[ws.outs[k].lo:ws.outs[k].hi]
			k++
		}
		c.spans[i] = span{uint32(len(base)), uint32(len(base) + len(l))}
		base = append(base, l...)
	}
	c.base, c.own = base, nil
}

// rankOrder sorts one vertex's edits by rank, stably, and drops every edit
// a later one of the same rank overrides. Edits arrive in delta order,
// which is rank order in every repair, so the sort is usually a scan.
func rankOrder(ed []Entry) []Entry {
	for i := 1; i < len(ed); i++ {
		for j := i; j > 0 && ed[j-1].Rank > ed[j].Rank; j-- {
			ed[j-1], ed[j] = ed[j], ed[j-1]
		}
	}
	out := ed[:0]
	for i, e := range ed {
		if i+1 < len(ed) && ed[i+1].Rank == e.Rank {
			continue
		}
		out = append(out, e)
	}
	return out
}

// splice appends to dst the label old with the edits ed applied, both
// sorted by rank and ed free of repeated ranks: an edit sets its rank's
// entry, or removes it when its distance is Inf.
func splice(dst, old, ed []Entry) []Entry {
	i := 0
	for _, e := range ed {
		for i < len(old) && old[i].Rank < e.Rank {
			dst = append(dst, old[i])
			i++
		}
		if i < len(old) && old[i].Rank == e.Rank {
			i++
		}
		if e.D != graph.Inf {
			dst = append(dst, e)
		}
	}
	return append(dst, old[i:]...)
}
