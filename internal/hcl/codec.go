package hcl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// The binary label stream shared by the hcl, dhcl and whcl codecs:
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
// hosts a block's entry area IS a valid []Entry and can be served straight
// out of an mmap (see mapped.go). The pads let a writer that knows its
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

// codecChunk is the number of values encoded or decoded per buffered block
// on the bulk paths.
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

// Stream is a decoded label stream: the landmarks, the row-major |R|×|R|
// highway, and one label table per block.
type Stream struct {
	Landmarks []uint32
	Highway   []graph.Dist
	Labels    []Packed
}

// ReadStream reads a label stream written by WriteStream with the given
// magic and block count over a graph of nv vertices, validating it as
// untrusted input: header fields, monotonic offsets, per-vertex spans of at
// most |R| entries sorted strictly by rank. Memory grows with the bytes
// that actually arrive, not with the sizes the stream claims: landmarks,
// highway and entries are all read in bounded chunks.
func ReadStream(r io.Reader, magic string, nv, blocks int) (*Stream, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	s, err := readHeader(br, magic, nv, blocks)
	if err != nil {
		return nil, err
	}
	nr := uint32(len(s.Landmarks))
	for i := range s.Labels {
		if s.Labels[i], err = readBlock(br, nv, nr); err != nil {
			return nil, fmt.Errorf("label block %d: %w", i, err)
		}
	}
	return s, nil
}

// readHeader reads and validates a stream header, returning a Stream with
// landmarks and highway filled and room for blocks label tables.
func readHeader(r io.Reader, magic string, nv, blocks int) (*Stream, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("reading index header: %w", err)
	}
	if got := string(hdr[:4]); got != magic {
		return nil, fmt.Errorf("unsupported index format %q (want %q)", got, magic)
	}
	le := binary.LittleEndian
	if got := le.Uint32(hdr[4:]); int64(got) != int64(nv) {
		return nil, fmt.Errorf("index has %d vertices, graph has %d", got, nv)
	}
	// Bound the claimed sizes before reading them; validate below checks
	// everything else.
	nr := le.Uint32(hdr[8:])
	if nr == 0 || nr > maxLandmarks {
		return nil, fmt.Errorf("implausible landmark count %d", nr)
	}
	landmarks, err := readU32s(r, int(nr))
	if err != nil {
		return nil, fmt.Errorf("reading landmarks: %w", err)
	}
	highway, err := readU32s(r, int(nr)*int(nr))
	if err != nil {
		return nil, fmt.Errorf("reading highway: %w", err)
	}
	if err := validate(landmarks, highway, nv, blocks == 1); err != nil {
		return nil, err
	}
	return &Stream{Landmarks: landmarks, Highway: highway, Labels: make([]Packed, blocks)}, nil
}

// readU32s reads n little-endian u32s in bounded chunks, so the result
// grows with the bytes that arrive rather than with the claimed count.
func readU32s(r io.Reader, n int) ([]uint32, error) {
	out := make([]uint32, 0, min(n, codecChunk))
	var buf [codecChunk * 4]byte
	for len(out) < n {
		b := buf[:4*min(n-len(out), codecChunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 4 {
			out = append(out, binary.LittleEndian.Uint32(b[i:]))
		}
	}
	return out, nil
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

// loaded returns the table of nv vertices whose labels the block offsets
// off lay out: chunk ci's base is entries(ci, lo, hi), the block's entries
// [lo, hi) of its vertex range. The table owns every span table, and the
// bases unless mapped says they alias a mapping.
func loaded(nv int, total uint64, off []uint64, mapped bool, entries func(ci int, lo, hi uint64) ([]Entry, error)) (Packed, error) {
	nc := (nv + packChunkLen - 1) / packChunkLen
	p := Packed{chunks: make([]packChunk, nc), owned: bitset.New(2 * nc), n: nv, entries: int64(total)}
	for ci := range p.chunks {
		lo := ci * packChunkLen
		hi := min(lo+packChunkLen, nv)
		base, err := entries(ci, off[lo], off[hi])
		if err != nil {
			return Packed{}, err
		}
		// The offsets fit u32 relative to the chunk: a chunk covers at
		// most packChunkLen vertices of at most 2^16 entries each.
		spans := make([]span, hi-lo)
		for i := range spans {
			spans[i] = span{uint32(off[lo+i] - off[lo]), uint32(off[lo+i+1] - off[lo])}
		}
		p.chunks[ci] = packChunk{base: base, spans: spans}
		p.own(ci, ownSpans)
		if !mapped {
			p.own(ci, ownBase)
		}
	}
	return p, nil
}

// readBlock reads one label block over nv vertices (copy-in path). Entries
// are allocated one chunk at a time, as their bytes arrive.
func readBlock(br *bufio.Reader, nv int, nr uint32) (Packed, error) {
	var hdr [blockHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Packed{}, fmt.Errorf("reading label block header: %w", err)
	}
	total, offPad, entPad, err := checkBlockHeader(hdr[:], nv, nr)
	if err != nil {
		return Packed{}, err
	}
	if _, err := br.Discard(int(offPad)); err != nil {
		return Packed{}, fmt.Errorf("skipping offset pad: %w", err)
	}
	le := binary.LittleEndian
	off := make([]uint64, nv+1)
	var buf [codecChunk * entryStride]byte
	for done := 0; done < len(off); {
		b := buf[:8*min(len(off)-done, codecChunk)]
		if _, err := io.ReadFull(br, b); err != nil {
			return Packed{}, fmt.Errorf("reading label offsets: %w", err)
		}
		for i := 0; i < len(b); i += 8 {
			off[done] = le.Uint64(b[i:])
			done++
		}
	}
	if err := checkOffsets(off, nr, total); err != nil {
		return Packed{}, err
	}
	if _, err := br.Discard(int(entPad)); err != nil {
		return Packed{}, fmt.Errorf("skipping entry pad: %w", err)
	}
	return loaded(nv, total, off, false, func(ci int, lo, hi uint64) ([]Entry, error) {
		entries := make([]Entry, hi-lo)
		for done := 0; done < len(entries); {
			b := buf[:entryStride*min(len(entries)-done, codecChunk)]
			if _, err := io.ReadFull(br, b); err != nil {
				return nil, fmt.Errorf("reading label arena at entry %d: %w", lo+uint64(done), err)
			}
			for i := 0; i < len(b); i += entryStride {
				entries[done] = Entry{Rank: le.Uint16(b[i:]), D: le.Uint32(b[i+4:])}
				done++
			}
		}
		for v := ci * packChunkLen; v < min((ci+1)*packChunkLen, nv); v++ {
			if !ranksValid(entries[off[v]-lo:off[v+1]-lo], nr) {
				return nil, fmt.Errorf("label %d entries unsorted or out of range", v)
			}
		}
		return entries, nil
	})
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

// ReadCore decodes a label stream of the given kind over n vertices (see
// ReadStream).
func ReadCore(r io.Reader, kind Kind, n int) (Core, error) {
	s, err := ReadStream(r, kind.Magic, n, kind.Dirs)
	return fromStream(kind, s, err)
}

// fromStream builds the labelling a decoded or mapped stream describes.
func fromStream(kind Kind, s *Stream, err error) (Core, error) {
	if err != nil {
		return Core{}, err
	}
	c := Core{Landmarks: s.Landmarks, kind: kind, hw: s.Highway}
	copy(c.dirs[:], s.Labels)
	c.indexRanks(s.Labels[0].NumVertices())
	return c, nil
}

// ReadIndex deserialises a labelling written by WriteTo and attaches it to
// g, which must be the graph the index was built over (vertex count is
// checked; callers needing a stronger guarantee can run VerifyCover).
func ReadIndex(r io.Reader, g *graph.Graph) (*Index, error) {
	c, err := ReadCore(r, undirected, g.NumVertices())
	return attach(g, c, err)
}
