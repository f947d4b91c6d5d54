// Package cow provides the one copy-on-write table of this repository: the
// adjacency lists of every graph substrate and every label direction of
// the labelling core (internal/hcl) are Tables, and every snapshot forks
// them.
//
// A Table holds one row per vertex, in chunks of ChunkLen rows. A chunk
// lays its rows out back to back: a base, laid out in row order when the
// chunk was last built, which may alias memory the table must never write
// (a mapped checkpoint); an overflow holding the rows rewritten since, each
// appended whole, dead rows a later write superseded included; and one
// span per row naming its elements in one of the two. A read is one
// bounds-computed sub-slice, and the garbage collector sees a few arrays
// per chunk, not one per row.
//
// Fork copies the chunk directory and clears the fork's two ownership
// bits per chunk, so a fork and its parent share every chunk until the
// fork first writes one. That write copies the chunk's span table and its
// overflow, and appends the rewritten rows to the overflow; the base stays
// shared, or mapped. When the overflow would outgrow a quarter of the base
// (and overflowMin), the write instead lays the whole chunk out afresh in
// one new base. A write therefore copies what it touches plus a few KiB
// per chunk, while the parent keeps serving reads from memory the fork
// never writes. Memory the table owns is written in place: a row rewritten
// no longer than it was is overwritten where it sits, and a row that ends
// the overflow grows there.
//
// Snapshot discipline: a table must not be written once it has been
// forked; only the newest fork is.
package cow

import "slices"

// Shift sets the chunk granularity: 1<<Shift rows per chunk. At 512 rows a
// chunk's span table is 4 KiB, and the directory a fork copies is one
// chunk header per 512 rows.
const Shift = 9

// ChunkLen is the number of rows in a chunk.
const ChunkLen = 1 << Shift

const mask = ChunkLen - 1

// overflowMin is the overflow, in elements, a chunk may hold whatever its
// base: a small chunk is not laid out afresh for every write.
const overflowMin = 64

// ownBit marks a span that indexes a chunk's overflow rather than its base.
const ownBit = 1 << 31

// span locates one row's elements in its chunk: [lo, hi) of the base, or
// of the overflow when lo carries ownBit. The zero span is an empty row.
type span struct{ lo, hi uint32 }

// noSpans backs the span tables of empty chunks: every span empty. A chunk
// using it does not own its span table, so it never writes it.
var noSpans [ChunkLen]span

// The ownership bits of a chunk: set when its span table and overflow, or
// its base, are the table's own and written in place; clear when they may
// still be shared with the table it was forked from, or alias memory it
// must not write.
const (
	ownSpans = 1 << iota
	ownBase
)

// chunk holds the rows of one range of ChunkLen vertices (see the package
// comment).
type chunk[T any] struct {
	base  []T
	own   []T
	spans []span
	owned uint8
}

// row returns the chunk's i-th row.
func (c *chunk[T]) row(i uint32) []T {
	s := c.spans[i]
	if s.lo&ownBit != 0 {
		return c.own[s.lo&^ownBit : s.hi]
	}
	return c.base[s.lo:s.hi]
}

// Table is a vector of rows with copy-on-write forks (see the package
// comment). The zero value is an empty table ready to use. Reads are safe
// for any number of concurrent readers; writes require exclusive access,
// except that Writes to distinct chunks may run concurrently.
type Table[T any] struct {
	chunks []chunk[T]
	n      int
}

// FromCSR returns the table of len(off)-1 rows whose row v is
// all[off[v]:off[v+1]], each chunk's base aliasing its range of all. The
// table owns its span tables, and its bases too when own says all is the
// table's to write rather than memory it must never write. The rows of one
// chunk must hold fewer than 2^31 elements between them.
func FromCSR[T any, O uint32 | uint64](off []O, all []T, own bool) Table[T] {
	n := len(off) - 1
	t := Table[T]{chunks: make([]chunk[T], (n+mask)>>Shift), n: n}
	owned := uint8(ownSpans)
	if own {
		owned |= ownBase
	}
	spans := make([]span, n) // one array for every chunk's span table
	for ci := range t.chunks {
		lo, hi := ci<<Shift, min((ci+1)<<Shift, n)
		s := spans[lo:hi:hi]
		for i := range s {
			s[i] = span{uint32(off[lo+i] - off[lo]), uint32(off[lo+i+1] - off[lo])}
		}
		t.chunks[ci] = chunk[T]{base: all[off[lo]:off[hi]:off[hi]], spans: s, owned: owned}
	}
	return t
}

// Len returns the number of rows.
func (t *Table[T]) Len() int { return t.n }

// Row returns row v. It aliases the table and must be treated as
// read-only. A row past Len is an out-of-range index.
func (t *Table[T]) Row(v uint32) []T { return t.chunks[v>>Shift].row(v & mask) }

// Slots returns the number of elements the table holds in its bases and
// overflows, the dead rows of the overflows included.
func (t *Table[T]) Slots() int64 {
	var n int64
	for i := range t.chunks {
		n += int64(len(t.chunks[i].base) + len(t.chunks[i].own))
	}
	return n
}

// Grow extends the table to n rows; the new rows are empty.
func (t *Table[T]) Grow(n int) {
	if n <= t.n {
		return
	}
	if last := len(t.chunks) - 1; t.n&mask != 0 {
		// Lengthen the partial last chunk's span table over the new rows,
		// on a copy unless it is the table's own.
		c := &t.chunks[last]
		c.mine(0)
		live := min(ChunkLen, n-last<<Shift)
		c.spans = append(c.spans, noSpans[:live-len(c.spans)]...)
	}
	for lo := len(t.chunks) << Shift; lo < n; lo += ChunkLen {
		live := min(ChunkLen, n-lo)
		t.chunks = append(t.chunks, chunk[T]{spans: noSpans[:live:live]})
	}
	t.n = n
}

// Fork returns a copy-on-write copy of the table: the chunk directory with
// clear ownership bits (see the package comment).
func (t *Table[T]) Fork() Table[T] {
	f := Table[T]{chunks: slices.Clone(t.chunks), n: t.n}
	for i := range f.chunks {
		f.chunks[i].owned = 0
	}
	return f
}

// Clone returns a deep copy that shares nothing with t, every chunk laid
// out in one base.
func (t *Table[T]) Clone() Table[T] {
	off := make([]uint64, t.n+1)
	all := make([]T, 0, t.Slots())
	for v := range t.n {
		all = append(all, t.Row(uint32(v))...)
		off[v+1] = uint64(len(all))
	}
	return FromCSR(off, all, true)
}

// Write is the one write of a table: it rewrites rows of chunk ci. verts
// lists them, relative to the chunk and ascending; row verts[k] becomes
// lens[k] elements long, and fill(k, dst) writes them into dst. fill is
// called once per row, in increasing k, and must not read the table: it
// may read rows taken from the table before the call. dst either shares
// no memory with the old row k or starts where it did, so a fill that
// reads element j of the old row before it writes dst[j] reads the old
// value.
//
// Rows of a chunk the table owns that are no longer than they were are
// written in place, and so is a row that ends the overflow; the others are
// appended to the overflow, or, when it would outgrow a quarter of the
// base, the chunk is laid out afresh.
func (t *Table[T]) Write(ci int, verts, lens []uint32, fill func(k int, dst []T)) {
	c := &t.chunks[ci]
	add := 0 // the elements the rows may append to the overflow
	for k, i := range verts {
		if !c.fits(i, lens[k]) {
			add += int(lens[k])
		}
	}
	if len(c.base) == 0 || len(c.own)+add > max(len(c.base)/4, overflowMin) {
		c.rebuild(verts, lens, fill)
		return
	}
	c.mine(add)
	for k, i := range verts {
		s, n := c.spans[i], lens[k]
		lo := s.lo &^ ownBit
		switch {
		case c.fits(i, n):
			if s.lo&ownBit != 0 {
				fill(k, c.own[lo:lo+n])
			} else {
				fill(k, c.base[lo:lo+n])
			}
			c.spans[i].hi = lo + n
		case s.lo&ownBit != 0 && int(s.hi) == len(c.own):
			c.own = slices.Grow(c.own, int(lo+n-s.hi))[:lo+n]
			fill(k, c.own[lo:])
			c.spans[i].hi = lo + n
		default:
			at := uint32(len(c.own))
			c.own = slices.Grow(c.own, int(n))[:at+n]
			fill(k, c.own[at:])
			c.spans[i] = span{at | ownBit, at + n}
		}
	}
}

// fits reports whether row i, rewritten n elements long, may be written
// where it sits once the chunk owns its span table and overflow: it does
// not grow, and it lies in the overflow or in a base the table owns.
func (c *chunk[T]) fits(i, n uint32) bool {
	s := c.spans[i]
	return n <= s.hi-s.lo&^ownBit && (s.lo&ownBit != 0 || c.owned&ownBase != 0)
}

// mine makes the chunk's span table and overflow the table's own, copying
// them first if they may be shared; the copy of the overflow has room for
// extra more elements.
func (c *chunk[T]) mine(extra int) {
	if c.owned&ownSpans != 0 {
		return
	}
	c.spans = slices.Clone(c.spans)
	c.own = append(make([]T, 0, len(c.own)+extra), c.own...)
	c.owned |= ownSpans
}

// rebuild lays the whole chunk out afresh in a new base, in row order: the
// rows of Write's arguments, and every other row as it was. The overflow
// empties.
func (c *chunk[T]) rebuild(verts, lens []uint32, fill func(k int, dst []T)) {
	old := *c
	if c.owned&ownSpans == 0 {
		c.spans = make([]span, len(old.spans))
	}
	n, k := 0, 0
	for i := range old.spans {
		if k < len(verts) && verts[k] == uint32(i) {
			n += int(lens[k])
			k++
		} else {
			n += len(old.row(uint32(i)))
		}
	}
	base := make([]T, n)
	at, k := uint32(0), 0
	for i := range old.spans {
		var l uint32
		if k < len(verts) && verts[k] == uint32(i) {
			l = lens[k]
			fill(k, base[at:at+l])
			k++
		} else {
			l = uint32(copy(base[at:], old.row(uint32(i))))
		}
		c.spans[i] = span{at, at + l}
		at += l
	}
	c.base, c.own, c.owned = base, nil, ownSpans|ownBase
}

// Append adds x at the end of row v.
func (t *Table[T]) Append(v uint32, x T) {
	old := t.Row(v)
	t.Write(int(v>>Shift), []uint32{v & mask}, []uint32{uint32(len(old) + 1)}, func(_ int, dst []T) {
		if len(old) > 0 && &dst[0] != &old[0] {
			copy(dst, old)
		}
		dst[len(old)] = x
	})
}

// Remove deletes element j of row v, moving the row's last element into
// its place.
func (t *Table[T]) Remove(v uint32, j int) {
	old := t.Row(v)
	last := len(old) - 1
	t.Write(int(v>>Shift), []uint32{v & mask}, []uint32{uint32(last)}, func(_ int, dst []T) {
		if last > 0 && &dst[0] != &old[0] {
			copy(dst, old[:last])
		}
		if j < last {
			dst[j] = old[last]
		}
	})
}

// Grow returns s resized to n elements, keeping its contents and extending
// its storage geometrically, so a per-vertex array tracking a growing graph
// is not reallocated per added vertex. Elements beyond the old capacity are
// zero.
func Grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}
