package hcl

import (
	"bytes"
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/graph"
)

// The mapped load path: interpret the label blocks inside an mmap'd
// checkpoint or label file as live []Entry without decoding. The in-place
// cast is legal only when the in-memory layout of Entry matches the wire
// layout (8-byte stride, distance at byte 4, little-endian host) and the
// mapped bytes happen to be aligned; entryLayoutOK gates the former once
// at startup and every attach checks the latter, and callers fall back to
// the copy-in decoder when either fails. Headers and offset tables are
// fully validated on attach (they are O(|R|² + |V|), touched at boot
// anyway); the entry spans are served as-is — a mapped boot that validated
// every entry would fault every page and be a slow copy-in load with extra
// steps. Checkpoints are local trusted state; the checkpoint CRC covers
// everything around the arena spans.

// ErrNotMappable reports that a well-formed stream cannot be served in
// place on this host — the Entry layout differs from the wire layout (a
// big-endian host) or a block landed misaligned — and the caller should
// fall back to the copy-in load.
var ErrNotMappable = errors.New("hcl: stream not mappable in place")

// entryLayoutOK reports whether the in-memory Entry layout matches the
// wire layout, the precondition for serving a mapped entry area as
// []Entry.
var entryLayoutOK = func() bool {
	var e Entry
	if unsafe.Sizeof(e) != entryStride || unsafe.Offsetof(e.D) != 4 || unsafe.Offsetof(e.Rank) != 0 {
		return false
	}
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1 // little-endian host
}()

// MapStream attaches the label stream at offset streamOff of the mapping m
// — the mapped counterpart of ReadStream. The header and offset tables are
// validated and the header copied; every table's chunks alias the mapped
// entries until a write rebuilds them, and each table pins m. Returns
// ErrNotMappable when the host layout or the blocks' actual alignment
// rules out the in-place cast.
func MapStream(m *arena.Mapping, streamOff int64, magic string, nv, blocks int) (*Stream, error) {
	data := m.Data()
	if streamOff < 0 || streamOff > int64(len(data)) {
		return nil, fmt.Errorf("stream offset %d out of range", streamOff)
	}
	data = data[streamOff:]
	s, err := readHeader(bytes.NewReader(data), magic, nv, blocks)
	if err != nil {
		return nil, err
	}
	if !entryLayoutOK {
		return nil, ErrNotMappable
	}
	nr := uint32(len(s.Landmarks))
	at := headerLen(int64(nr))
	for i := range s.Labels {
		p, n, err := mapBlock(data[at:], nv, nr)
		if err != nil {
			return nil, fmt.Errorf("label block %d: %w", i, err)
		}
		p.ref = m
		s.Labels[i] = p
		at += n
	}
	return s, nil
}

// mapBlock interprets the label block over nv vertices at the start of
// data in place, each chunk's base aliasing its mapped entries, and
// returns the table and the block length.
func mapBlock(data []byte, nv int, nr uint32) (Packed, int64, error) {
	if len(data) < blockHeaderLen {
		return Packed{}, 0, fmt.Errorf("label block truncated")
	}
	total, offPad, entPad, err := checkBlockHeader(data, nv, nr)
	if err != nil {
		return Packed{}, 0, err
	}
	offStart := blockHeaderLen + offPad
	entStart := offStart + 8*int64(nv+1) + entPad
	blockLen := entStart + int64(total)*entryStride
	if int64(len(data)) < blockLen {
		return Packed{}, 0, fmt.Errorf("label block truncated: have %d of %d bytes", len(data), blockLen)
	}
	offPtr := unsafe.Pointer(&data[offStart])
	if uintptr(offPtr)%8 != 0 {
		return Packed{}, 0, ErrNotMappable
	}
	off := unsafe.Slice((*uint64)(offPtr), nv+1)
	if err := checkOffsets(off, nr, total); err != nil {
		return Packed{}, 0, err
	}
	var entries []Entry
	if total > 0 {
		entPtr := unsafe.Pointer(&data[entStart])
		if uintptr(entPtr)%unsafe.Alignof(Entry{}) != 0 {
			return Packed{}, 0, ErrNotMappable
		}
		entries = unsafe.Slice((*Entry)(entPtr), total)
	}
	p, err := loaded(nv, total, off, true, func(_ int, lo, hi uint64) ([]Entry, error) {
		return entries[lo:hi:hi], nil
	})
	return p, blockLen, err
}

// MapCore attaches the label stream of the given kind at offset streamOff
// of the mapping m, serving the entry arenas straight out of the mapped
// bytes; the labelling pins m for as long as any fork may alias it. Returns
// ErrNotMappable when this host cannot serve the stream in place — callers
// fall back to ReadCore.
func MapCore(m *arena.Mapping, streamOff int64, kind Kind, n int) (Core, error) {
	s, err := MapStream(m, streamOff, kind.Magic, n, kind.Dirs)
	return fromStream(kind, s, err)
}

// ReadIndexMapped attaches the index stream at offset streamOff of the
// mapping m to g (see MapCore).
func ReadIndexMapped(m *arena.Mapping, streamOff int64, g *graph.Graph) (*Index, error) {
	c, err := MapCore(m, streamOff, undirected, g.NumVertices())
	return attach(g, c, err)
}
