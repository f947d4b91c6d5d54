package hcl

import (
	"slices"

	"repro/internal/arena"
	"repro/internal/cow"
	"repro/internal/fanout"
	"repro/internal/graph"
)

// The label store. A labelling keeps every label direction in one form,
// Packed: the one copy-on-write table (internal/cow) of Entry rows, which
// lays out the labels of each 512-vertex range back to back in a chunk,
// the layout the adjacency of every graph shares. Queries read a label as
// one bounds-computed sub-slice of its chunk, the repair merge rewrites
// the chunks it touches, and the stream codec writes and reads them
// directly. What only labels need is here: the merge's grouping of edits
// by chunk and their splice into each label by rank, the entry count and
// the mapping a loaded table's bases may alias.
//
// Snapshot discipline: a table must not be written once it has been
// forked; only the newest fork is.

// packShift sets the chunk granularity: 1<<packShift vertices per chunk,
// the table's.
const packShift = cow.Shift

// packChunkLen is the number of vertices covered by one chunk.
const packChunkLen = 1 << packShift

const packMask = packChunkLen - 1

// Packed is one label direction: a copy-on-write table of labels (see the
// file comment). Reads are safe for any number of concurrent readers;
// writes require exclusive access.
type Packed struct {
	t       cow.Table[Entry]
	entries int64 // live entries across all chunks

	// ref pins the mmap'd region base arrays may alias (see
	// AttachCore): every fork inherits it, so the mapping stays alive while
	// any descendant may still read a mapped chunk. Nil for a labelling
	// that never aliased one.
	ref *arena.Mapping
}

// newPacked returns a table of n empty labels.
func newPacked(n int) Packed {
	var p Packed
	p.t.Grow(n)
	return p
}

// NumVertices returns the number of vertices the table covers.
func (p *Packed) NumVertices() int { return p.t.Len() }

// NumEntries returns the number of label entries.
func (p *Packed) NumEntries() int64 { return p.entries }

// ArenaBytes is the memory the table holds for its labels: entryStride
// bytes per base and overflow slot, dead overflow labels included, plus
// one span per vertex. It is what Stats.PackedBytes reports.
func (p *Packed) ArenaBytes() int64 {
	return p.t.Slots()*entryStride + int64(p.t.Len())*spanBytes
}

// spanBytes is the size of the table's locator of one label.
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
func (p *Packed) Label(v uint32) []Entry { return p.t.Row(v) }

// Fork returns a copy-on-write copy of the table (see internal/cow).
func (p *Packed) Fork() Packed {
	return Packed{t: p.t.Fork(), entries: p.entries, ref: p.ref}
}

// grow extends the table to n vertices; the new labels are empty.
func (p *Packed) grow(n int) { p.t.Grow(n) }

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
	lens  []uint32            // per rewritten vertex: its new label's length
	out   []Entry             // the rewritten labels, back to back
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
			ops = as.group(ops, (p.t.Len()+packMask)>>packShift)
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
	grown := cow.Grow(as.grown, n)
	workers = min(fanout.Resolve(workers), n)
	scs := make([]*chunkScratch, workers)
	for i := range scs {
		scs[i] = chunkScratches.Get()
	}
	fanout.Run(workers, n, func(w, t int) {
		ci := pieces[tasks[t]].ci
		grown[t] = p.rewrite(ci, pieces[tasks[t]:tasks[t+1]], scs[w])
	})
	for _, s := range scs {
		chunkScratches.Put(s)
	}
	for _, g := range grown {
		p.entries += g
	}
	// The pooled pieces must not keep the deltas' edits alive.
	clear(pieces)
	as.tasks, as.grown = tasks, grown
}

// applyScratch is the buffers of one apply: the edits of deltas not in
// chunk order, regrouped; the bucket bounds of their counting sort; the
// pieces; and per touched chunk, the first of its pieces and its change in
// entries.
type applyScratch struct {
	ops    []labelOp
	at     []int32
	pieces []piece
	tasks  []int
	grown  []int64
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
// entry count. Concurrent rewrites of distinct chunks are safe.
func (p *Packed) rewrite(ci int, pieces []piece, ws *chunkScratch) int64 {
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
	ws.out, ws.lens = ws.out[:0], ws.lens[:0]
	var grown int64
	start := int32(0)
	lo := uint32(ci << packShift)
	for _, i := range ws.verts {
		ed := ws.edits[start:at[i]]
		start, at[i] = at[i], 0
		old := p.t.Row(lo + i)
		n := len(ws.out)
		ws.out = splice(ws.out, old, rankOrder(ed))
		ws.lens = append(ws.lens, uint32(len(ws.out)-n))
		grown += int64(len(ws.out)-n) - int64(len(old))
	}
	rest := ws.out
	p.t.Write(ci, ws.verts, ws.lens, func(_ int, dst []Entry) {
		rest = rest[copy(dst, rest):]
	})
	return grown
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
