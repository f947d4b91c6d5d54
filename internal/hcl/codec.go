package hcl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/arena"
	"repro/internal/cow"
	"repro/internal/graph"
)

// The binary label stream of all three variants:
//
//	magic | u32 |V| | u32 |R| | landmarks u32×|R| |
//	highway u32×|R|² (row-major) | one label block per label table
//
// The magic names the variant and its block count: "HCL3" (undirected,
// one block), "DHL2" (directed, forward then backward) and "WHL2"
// (weighted, one block). Each label block is
//
//	u64 total entries | u32 offPad | u32 entPad |
//	offPad zero bytes | offsets u64×(|V|+1) |
//	entPad zero bytes | entries 8B each (u16 rank | u16 zero | u32 dist)
//
// Entries are stored in the in-memory layout of Entry, so on little-endian
// hosts a block's entry area IS a valid []Entry: AttachCore, the one
// decoder, serves it in place from a mapping or a heap buffer (see
// mapped.go) and decodes it only where the host layout or the alignment
// rules that out. The pads let a writer that knows its
// absolute position in the enclosing file align the offset table to 8
// bytes and the entry area to a page boundary; they are self-describing,
// so a reader never needs the writer's base offset. All integers are
// little-endian. The graph is serialised separately (graph.WriteEdgeList,
// or the checkpoint's edge array): an index only makes sense next to its
// graph, and the two artefacts stay independently inspectable.
const codecMagic = "HCL3"

// Span is an absolute byte range [Off, Off+Len) in the file a label stream
// was written into: one raw entry area. A mapped load serves these regions
// in place, and the checkpoint CRC skips them so that boot never faults
// them in.
type Span struct{ Off, Len int64 }

// blockHeaderLen is the fixed prefix of a label block: u64 total + u32
// offPad + u32 entPad.
const blockHeaderLen = 16

// entryStride is the in-memory size of one Entry, the stride of a block's
// entry area. Asserted against unsafe.Sizeof in mapped.go.
const entryStride = 8

// maxPad bounds the declared pads of an untrusted block: enough for any
// page size in the wild, small enough to reject absurd skips.
const maxPad = 1 << 20

// codecChunk is the number of values encoded per buffered block by the
// writer.
const codecChunk = 4096

// headerLen is the byte length of a stream header over nr landmarks.
func headerLen(nr int64) int64 { return 4 + 4 + 4 + 4*nr + 4*nr*nr }

// blockGeometry computes the layout of a label block whose first byte
// lands at absolute offset base: the two pad lengths, the absolute entry
// offset and the total block length. align is the wanted alignment of the
// entry area (a power of two ≥ entryStride).
func blockGeometry(nv int, total uint64, base, align int64) (offPad, entPad, entOff, blockLen int64) {
	offStart := base + blockHeaderLen
	offPad = (8 - offStart%8) % 8
	offEnd := offStart + offPad + 8*int64(nv+1)
	entPad = (align - offEnd%align) % align
	entOff = offEnd + entPad
	blockLen = entOff + int64(total)*entryStride - base
	return
}

// countingWriter tracks bytes written through a bufio layer so WriteStream
// reports a byte count net of buffering.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteStream writes one complete label stream: the header (magic, vertex
// count, landmarks, highway) followed by one label block per table. base
// is the absolute offset of the stream's first byte in the destination
// file (0 for a file of its own); entry areas are page-aligned relative to
// it. Labels are written straight from the tables. Returns the bytes
// written and the absolute span of each table's entry area.
func WriteStream(w io.Writer, magic string, landmarks []uint32, highway []graph.Dist, base int64, tables ...*Packed) (int64, []Span, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	le := binary.LittleEndian
	// bufio.Writer errors are sticky: Flush reports the first one.
	var u32 [4]byte
	putU32 := func(v uint32) {
		le.PutUint32(u32[:], v)
		bw.Write(u32[:])
	}
	bw.WriteString(magic)
	putU32(uint32(tables[0].NumVertices()))
	putU32(uint32(len(landmarks)))
	for _, v := range landmarks {
		putU32(v)
	}
	for _, d := range highway {
		putU32(d)
	}
	at := base + headerLen(int64(len(landmarks)))
	spans := make([]Span, len(tables))
	for i, labels := range tables {
		var n int64
		spans[i], n = writeBlock(bw, labels, at, int64(os.Getpagesize()))
		at += n
	}
	if err := bw.Flush(); err != nil {
		return cw.n, nil, err
	}
	return cw.n, spans, nil
}

// writeBlock appends the label block of table L to bw, its first byte at
// absolute offset base, and returns the absolute span of its entry area
// and the block length. Write errors surface at bw's Flush.
func writeBlock(bw *bufio.Writer, L *Packed, base, align int64) (Span, int64) {
	le := binary.LittleEndian
	// rows calls fn for every label in vertex order.
	rows := func(fn func(l []Entry)) {
		for v := 0; v < L.NumVertices(); v++ {
			fn(L.Label(uint32(v)))
		}
	}
	total := uint64(L.NumEntries())
	offPad, entPad, entOff, blockLen := blockGeometry(L.NumVertices(), total, base, align)
	var hdr [blockHeaderLen]byte
	le.PutUint64(hdr[0:], total)
	le.PutUint32(hdr[8:], uint32(offPad))
	le.PutUint32(hdr[12:], uint32(entPad))
	bw.Write(hdr[:])
	writeZeros(bw, offPad)
	var buf [codecChunk * entryStride]byte
	n := 0
	// flush drains buf unless need more bytes still fit; flush(len(buf))
	// always drains.
	flush := func(need int) {
		if n+need > len(buf) {
			bw.Write(buf[:n])
			n = 0
		}
	}
	var off uint64
	rows(func(l []Entry) {
		flush(8)
		le.PutUint64(buf[n:], off)
		n += 8
		off += uint64(len(l))
	})
	flush(8)
	le.PutUint64(buf[n:], off)
	n += 8
	flush(len(buf))
	writeZeros(bw, entPad)
	rows(func(l []Entry) {
		for _, e := range l {
			flush(entryStride)
			le.PutUint16(buf[n:], e.Rank)
			le.PutUint16(buf[n+2:], 0)
			le.PutUint32(buf[n+4:], e.D)
			n += entryStride
		}
	})
	flush(len(buf))
	return Span{Off: entOff, Len: int64(total) * entryStride}, blockLen
}

func writeZeros(bw *bufio.Writer, n int64) {
	var zeros [512]byte
	for n > 0 {
		w := min(n, int64(len(zeros)))
		bw.Write(zeros[:w])
		n -= w
	}
}

// AttachCore attaches the label stream of the given kind over n vertices
// at the start of data; bytes past the stream are ignored. It is the one
// label decoder, and it treats the bytes as untrusted: the header, every
// block's header and its offsets are validated, and nothing is allocated
// before the bytes that fill it are known to be there. Each block's
// offsets and entries are served in place where the host layout and
// their alignment allow (see mapped.go) and decoded into fresh slices
// otherwise.
//
// The bytes come from one of two sources. When m is non-nil, data lies
// inside m's mapped bytes: a table whose entries are served in place
// pins m and does not read them, so a mapped boot faults in only the
// header and offset pages. When m is nil, data is heap bytes the labelling now
// aliases (it never writes them): every label's ranks are checked, as
// they are for entries decoded by the fallback.
func AttachCore(data []byte, m *arena.Mapping, kind Kind, n int) (Core, error) {
	le := binary.LittleEndian
	if len(data) < 12 {
		return Core{}, fmt.Errorf("index header truncated: %d bytes", len(data))
	}
	if got := string(data[:4]); got != kind.Magic {
		return Core{}, fmt.Errorf("unsupported index format %q (want %q)", got, kind.Magic)
	}
	if got := le.Uint32(data[4:]); int64(got) != int64(n) {
		return Core{}, fmt.Errorf("index has %d vertices, graph has %d", got, n)
	}
	nr := le.Uint32(data[8:])
	if nr == 0 || nr > maxLandmarks {
		return Core{}, fmt.Errorf("implausible landmark count %d", nr)
	}
	at := headerLen(int64(nr))
	if int64(len(data)) < at {
		return Core{}, fmt.Errorf("index header truncated: have %d of %d bytes", len(data), at)
	}
	landmarks, highway := u32s(data[12:12+4*nr]), u32s(data[12+4*nr:at])
	if err := validate(landmarks, highway, n, kind.Dirs == 1); err != nil {
		return Core{}, err
	}
	c := Core{Landmarks: landmarks, kind: kind, hw: highway}
	for d := range kind.Dirs {
		p, blockLen, err := attachBlock(data[at:], m, n, nr)
		if err != nil {
			return Core{}, fmt.Errorf("label block %d: %w", d, err)
		}
		c.dirs[d] = p
		at += blockLen
	}
	c.indexRanks(n)
	return c, nil
}

// u32s decodes b as little-endian u32s.
func u32s(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// attachBlock attaches the label block over nv vertices at the start of
// data (see AttachCore) and returns its table and the block length.
func attachBlock(data []byte, m *arena.Mapping, nv int, nr uint32) (Packed, int64, error) {
	if len(data) < blockHeaderLen {
		return Packed{}, 0, fmt.Errorf("label block header truncated")
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
	le := binary.LittleEndian
	off, ok := inPlace[uint64](data[offStart:], nv+1)
	if !ok {
		off = make([]uint64, nv+1)
		for i := range off {
			off[i] = le.Uint64(data[offStart+8*int64(i):])
		}
	}
	if err := checkOffsets(off, nr, total); err != nil {
		return Packed{}, 0, err
	}
	entries, served := inPlace[Entry](data[entStart:], int(total))
	if !served {
		b := data[entStart:blockLen]
		entries = make([]Entry, total)
		for i := range entries {
			entries[i] = Entry{Rank: le.Uint16(b[entryStride*i:]), D: le.Uint32(b[entryStride*i+4:])}
		}
	}
	if m == nil || !served {
		for v := range nv {
			if !ranksValid(entries[off[v]:off[v+1]], nr) {
				return Packed{}, 0, fmt.Errorf("label %d entries unsorted or out of range", v)
			}
		}
	}
	p := loaded(off, entries, !served)
	if served {
		p.ref = m
	}
	return p, blockLen, nil
}

// checkBlockHeader validates the fixed prefix of an untrusted label block
// and returns its total entry count and pads.
func checkBlockHeader(hdr []byte, nv int, nr uint32) (total uint64, offPad, entPad int64, err error) {
	le := binary.LittleEndian
	total = le.Uint64(hdr[0:])
	offPad = int64(le.Uint32(hdr[8:]))
	entPad = int64(le.Uint32(hdr[12:]))
	if total > uint64(nv)*uint64(nr) {
		return 0, 0, 0, fmt.Errorf("label block claims %d entries for %d vertices × %d landmarks", total, nv, nr)
	}
	if offPad > maxPad || entPad > maxPad {
		return 0, 0, 0, fmt.Errorf("label block pads implausible (%d, %d)", offPad, entPad)
	}
	return total, offPad, entPad, nil
}

// checkOffsets validates a block's CSR offset index: it starts at 0, is
// monotonic, covers exactly total entries and gives no vertex more than
// nr entries.
func checkOffsets(off []uint64, nr uint32, total uint64) error {
	var prev uint64
	for i := range off {
		if off[i] < prev || off[i] > total || (i == 0 && off[0] != 0) {
			return fmt.Errorf("label offsets not monotonic at vertex %d", i)
		}
		if c := off[i] - prev; i > 0 && c > uint64(nr) {
			return fmt.Errorf("label %d has %d entries for %d landmarks", i-1, c, nr)
		}
		prev = off[i]
	}
	if off[len(off)-1] != total {
		return fmt.Errorf("label offsets cover %d of %d entries", off[len(off)-1], total)
	}
	return nil
}

// loaded returns the table of len(off)-1 vertices whose labels the block
// offsets off lay out in entries, each chunk's base aliasing its range of
// entries (cow.FromCSR), which the table writes only when own says it is
// a fresh slice rather than bytes it must never write. The offsets fit
// u32 relative to a chunk: a chunk covers at most 512 vertices of at most
// 2^16 entries each.
func loaded(off []uint64, entries []Entry, own bool) Packed {
	return Packed{t: cow.FromCSR(off, entries, own), entries: int64(len(entries))}
}

// ranksValid reports whether a label's ranks are strictly increasing and
// below nr.
func ranksValid(l []Entry, nr uint32) bool {
	prev := -1
	for _, e := range l {
		if int(e.Rank) <= prev || uint32(e.Rank) >= nr {
			return false
		}
		prev = int(e.Rank)
	}
	return true
}

// WriteTo serialises the labelling (landmarks, highway, labels) to w as a
// file of its own. The graph is serialised separately.
func (c *Core) WriteTo(w io.Writer) (int64, error) {
	n, _, err := c.WriteToAt(w, 0)
	return n, err
}

// WriteToAt serialises the labelling for a stream starting at absolute
// offset base of the destination file, so the entry arenas land
// page-aligned in that file. The returned spans name the raw entry area of
// each label direction, which a mapped load serves in place.
func (c *Core) WriteToAt(w io.Writer, base int64) (int64, []Span, error) {
	tables := make([]*Packed, c.kind.Dirs)
	for d := range tables {
		tables[d] = &c.dirs[d]
	}
	return WriteStream(w, c.kind.Magic, c.Landmarks, c.hw, base, tables...)
}

// ReadCore reads r to the end and attaches the label stream of the given
// kind over n vertices from the heap (see AttachCore). Memory grows with
// the bytes that arrive, not with the sizes the stream claims.
func ReadCore(r io.Reader, kind Kind, n int) (Core, error) {
	data, err := ReadAll(r)
	if err != nil {
		return Core{}, fmt.Errorf("reading label stream: %w", err)
	}
	return AttachCore(data, nil, kind, n)
}

// ReadAll reads r to the end into a buffer of exactly the bytes read. A
// labelling attached from the heap aliases its buffer, so spare capacity
// would stay alive with it: when io.ReadAll leaves some, the bytes are
// copied into a buffer of their length.
func ReadAll(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil || cap(data) == len(data) {
		return data, err
	}
	exact := make([]byte, len(data))
	copy(exact, data)
	return exact, nil
}
