package hcl

import (
	"unsafe"
)

// In-place attach: AttachCore serves a block's offset table and entry area
// as live []uint64 and []Entry straight out of the bytes it was given, an
// mmap'd checkpoint or label file or a heap buffer, without decoding them.
// The cast is legal only when the in-memory layout of Entry matches the
// wire layout (8-byte stride, distance at byte 4, little-endian host) and
// the bytes happen to be aligned; entryLayoutOK gates the former once at
// startup and inPlace checks the latter per block. When either fails, the
// decoder falls back to decoding the values into fresh slices itself, so
// no caller ever sees the difference. Headers and offset tables are always
// validated (they are O(|R|² + |V|), touched at boot anyway). Entries
// served out of a mapping are not read at attach: a mapped boot that
// checked every entry would fault every page and be a slow copy-in load
// with extra steps. Checkpoints are local trusted state, and the
// checkpoint CRC covers everything around the entry spans. Entries in heap
// bytes or decoded by the fallback are checked label by label.

// entryLayoutOK reports whether the in-memory Entry layout matches the
// wire layout, the precondition for serving an entry area as []Entry.
var entryLayoutOK = func() bool {
	var e Entry
	if unsafe.Sizeof(e) != entryStride || unsafe.Offsetof(e.D) != 4 || unsafe.Offsetof(e.Rank) != 0 {
		return false
	}
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1 // little-endian host
}()

// inPlace returns the n values at the start of b as a []T aliasing b, and
// false when the host layout or b's alignment rules the cast out. b must
// hold at least n values.
func inPlace[T uint64 | Entry](b []byte, n int) ([]T, bool) {
	if n == 0 {
		return nil, true
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if !entryLayoutOK || uintptr(p)%unsafe.Alignof(*new(T)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), n), true
}
