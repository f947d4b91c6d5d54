// Package cow provides the chunked copy-on-write table behind every
// per-vertex structure a snapshot forks: the adjacency lists of the graph
// substrates and the label directions of the labelling core.
//
// A Table holds one slice per vertex, its row, in chunks of ChunkLen rows.
// Fork copies only the chunk directory and one shared bit per vertex, so
// the fork and its parent share every chunk and every row's backing array
// until the fork first writes a row. That first write copies the row's
// chunk of headers (at most 12 KiB) if no row of the chunk has been
// written yet, and then the row's backing array; a chunk is the fork's own
// exactly when one of its rows' bits is clear. A fork therefore costs
// O(|V|/8) bytes and a write costs what it touches, while the parent keeps
// serving reads from memory the fork never writes.
//
// Snapshot discipline: a table must not be written once it has been
// forked; only the newest fork is.
package cow

import (
	"slices"

	"repro/internal/bitset"
)

// Shift sets the chunk granularity: 1<<Shift rows per chunk. 512 rows keep
// the first-write copy of a chunk at 12 KiB of row headers, and the
// directory a fork copies at one slice header per 512 vertices.
const Shift = 9

// ChunkLen is the number of rows in a chunk.
const ChunkLen = 1 << Shift

const mask = ChunkLen - 1

// Table is a vector of per-vertex slices with copy-on-write forks. The zero
// value is an empty table ready to use.
type Table[T any] struct {
	// chunks[ci] holds rows [ci*ChunkLen, min((ci+1)*ChunkLen, n)): every
	// chunk has capacity ChunkLen and the length of its live rows, so a
	// lookup past Len panics like an out-of-range slice index. A chunk is a
	// slice rather than an array pointer so that a row lookup loads the
	// directory entry and the row header only: dereferencing a pointer
	// costs a nil check that touches the chunk's first line, and at a
	// 12 KiB stride those lines all contend for the same cache sets.
	chunks [][][]T
	// shared is nil until the table is forked. Bit v set: row v's backing
	// array, and its chunk unless another row of the chunk has been
	// written, still belong to the parent.
	shared *bitset.Set
	n      int
}

// Make returns a table of n empty rows.
func Make[T any](n int) Table[T] {
	var t Table[T]
	t.Grow(n)
	return t
}

// Len returns the number of rows.
func (t *Table[T]) Len() int { return t.n }

// Row returns row v. It is owned by the table and must not be modified.
func (t *Table[T]) Row(v uint32) []T { return t.chunks[v>>Shift][v&mask] }

// Mut returns row v for writing: its chunk and then its backing array are
// copied first if they are still the parent's. Writes through the pointer
// must end before the table is forked.
func (t *Table[T]) Mut(v uint32) *[]T {
	if int(v) >= t.n {
		panic("cow: row out of range")
	}
	c := t.chunks[v>>Shift]
	if t.shared != nil && t.shared.Get(v) {
		if t.ChunkShared(int(v >> Shift)) {
			c = cloneChunk(c)
			t.chunks[v>>Shift] = c
		}
		t.shared.Clear(v)
		if r := c[v&mask]; len(r) == 0 {
			c[v&mask] = nil // nothing to copy; the next append allocates
		} else {
			c[v&mask] = append(make([]T, 0, len(r)+1), r...)
		}
	}
	return &c[v&mask]
}

// Grow extends the table to n rows; the new rows are empty and the
// table's own.
func (t *Table[T]) Grow(n int) {
	if n <= t.n {
		return
	}
	if last := t.n >> Shift; t.n&mask != 0 {
		// The new rows of a partial last chunk are the table's own, so the
		// chunk must be too before it is lengthened over them.
		if t.ChunkShared(last) {
			t.chunks[last] = cloneChunk(t.chunks[last])
		}
		t.chunks[last] = t.chunks[last][:min(ChunkLen, n-last<<Shift)]
	}
	if t.shared != nil {
		t.shared.Grow(n) // new bits are clear
	}
	// New chunks are carved from one allocation, so a table built at its
	// full size keeps its row headers contiguous.
	if need := (n+mask)>>Shift - len(t.chunks); need > 0 {
		slab := make([][]T, need<<Shift)
		for lo := 0; lo < len(slab); lo += ChunkLen {
			live := min(ChunkLen, n-len(t.chunks)<<Shift)
			t.chunks = append(t.chunks, slab[lo:lo+live:lo+ChunkLen])
		}
	}
	t.n = n
}

// cloneChunk copies a chunk's row headers into a new chunk of full
// capacity, so a partial last chunk can still be lengthened in place.
func cloneChunk[T any](c [][]T) [][]T {
	return append(make([][]T, 0, ChunkLen), c...)
}

// Fork returns a copy-on-write copy of the table. It copies the chunk
// directory and one bit per row; see the package comment.
func (t *Table[T]) Fork() Table[T] {
	return Table[T]{chunks: slices.Clone(t.chunks), shared: bitset.NewAllSet(t.n), n: t.n}
}

// NumChunks returns the number of chunks; chunk ci holds rows
// [ci*ChunkLen, min((ci+1)*ChunkLen, Len())).
func (t *Table[T]) NumChunks() int { return len(t.chunks) }

// Chunk returns the rows of chunk ci. They alias the table and must not be
// modified.
func (t *Table[T]) Chunk(ci int) [][]T { return t.chunks[ci] }

// ChunkShared reports whether chunk ci is still the one the table was
// forked with: no row in it has been written, and none added, since Fork.
// It is false on a table that was never forked.
func (t *Table[T]) ChunkShared(ci int) bool {
	lo := ci << Shift
	return t.shared != nil && t.shared.AllSet(lo, min(lo+ChunkLen, t.n))
}

// Clone returns a deep copy that shares nothing with t.
func (t *Table[T]) Clone() Table[T] {
	c := Make[T](t.n)
	for ci := range t.chunks {
		for i, r := range t.Chunk(ci) {
			if len(r) > 0 {
				c.chunks[ci][i] = slices.Clone(r)
			}
		}
	}
	return c
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
