package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	dynhl "repro"
	"repro/internal/graph"
)

// Checkpoint file: the complete state at one epoch, so recovery replays
// only the log tail beyond it.
//
//	magic "HLWCKPT2" | u64 epoch | u64 vertices |
//	u64 graphLen | graph section: u64 edge count, u32 u | u32 v per edge |
//	u64 labelsLen | labelling stream (SaveAt) |
//	span table: (u64 off | u64 len) per span | u32 span count |
//	u32 CRC32 (IEEE) of everything above except the span byte ranges
//
// The graph is a raw binary edge array rather than the textual edge list —
// recovery time is the subsystem's whole point, and parsing text would
// dominate it. The vertex count is stored explicitly because an edge array
// cannot carry trailing isolated vertices (ids with every incident edge
// deleted), which the labelling stream then refuses to attach to.
//
// The labelling is written with SaveAt at its real file offset, so its
// entry arenas land page-aligned in the file and a recovery can mmap the
// checkpoint and serve queries straight from the page cache instead of
// decoding the labels. The spans name exactly those entry arenas: the CRC
// deliberately excludes them so validating a mapped checkpoint at boot
// faults in only the header, graph and offset-table pages — a CRC over the
// whole file would read every entry page and make the mapped boot a
// copy-in load with extra steps. The entry bytes are therefore not
// integrity-checked; they are node-local state written by us, and the
// offset tables bounding every access are still fully covered. The
// trailer parses backwards (count, then the spans before it) so the header
// needs no forward pointer.
const ckptMagic = "HLWCKPT2"

// maxCkptSpans bounds the span table: no variant writes more than two
// entry arenas (the directed one), so anything large is damage.
const maxCkptSpans = 16

const ckptExt = ".ckpt"

// ckptKeep is how many checkpoints survive pruning. Keeping the previous
// one lets recovery fall back when the newest is damaged, so log segments
// are only deleted once two checkpoints supersede them.
const ckptKeep = 2

func ckptPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%020d%s", epoch, ckptExt))
}

// checkpointable is the oracle capability a checkpoint needs: the
// labelling stream, written at its offset in the checkpoint file, plus the
// graph it was built over. Satisfied by *dynhl.Index.
type checkpointable interface {
	SaveAt(w io.Writer, base int64) (int64, []dynhl.Span, error)
	Graph() *dynhl.Graph
}

// unwrapper is how the concrete oracle is reached behind a Store snapshot.
type unwrapper interface {
	Unwrap() dynhl.Oracle
}

// asCheckpointable digs the checkpoint capability out of o, looking through
// Store views and stores.
func asCheckpointable(o any) (checkpointable, bool) {
	for {
		if c, ok := o.(checkpointable); ok {
			return c, true
		}
		u, ok := o.(unwrapper)
		if !ok {
			return nil, false
		}
		o = u.Unwrap()
	}
}

// writeGraphSection writes g's binary edge array: u64 edge count, then the
// endpoints as u32 pairs. Write errors surface at the caller's flush.
func writeGraphSection(w io.Writer, g *dynhl.Graph) {
	le := binary.LittleEndian
	var b [8]byte
	le.PutUint64(b[:], g.NumEdges())
	w.Write(b[:])
	g.Edges(func(u, v uint32) {
		le.PutUint32(b[:], u)
		le.PutUint32(b[4:], v)
		w.Write(b[:])
	})
}

// decodeGraphSection rebuilds the graph from its binary edge array.
func decodeGraphSection(data []byte, vertices uint64) (*dynhl.Graph, error) {
	le := binary.LittleEndian
	if len(data) < 8 {
		return nil, fmt.Errorf("wal: truncated graph section")
	}
	edges := le.Uint64(data)
	if rest := uint64(len(data) - 8); rest%8 != 0 || edges != rest/8 {
		return nil, fmt.Errorf("wal: graph section holds %d bytes for %d edges", len(data)-8, edges)
	}
	if vertices > math.MaxUint32 {
		return nil, fmt.Errorf("wal: graph section claims %d vertices", vertices)
	}
	g, err := graph.FromEdges(int(vertices), int(edges), func(i int) (uint32, uint32) {
		e := data[8+8*i:]
		return le.Uint32(e), le.Uint32(e[4:])
	})
	if err != nil {
		return nil, fmt.Errorf("wal: graph section: %w", err)
	}
	return g, nil
}

// crcSkipSpans computes the IEEE CRC32 of data with the given byte
// ranges excluded. Spans must be sorted, non-overlapping and in bounds —
// validated by the caller (decode) or true by construction (write).
func crcSkipSpans(data []byte, spans []dynhl.Span) uint32 {
	var crc uint32
	pos := int64(0)
	for _, s := range spans {
		crc = crc32.Update(crc, crc32.IEEETable, data[pos:s.Off])
		pos = s.Off + s.Len
	}
	return crc32.Update(crc, crc32.IEEETable, data[pos:])
}

// writeCheckpoint atomically writes the checkpoint for epoch: temp file,
// fsync, rename, directory fsync. It returns the final path.
func writeCheckpoint(dir string, epoch uint64, src checkpointable) (string, error) {
	final := ckptPath(dir, epoch)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o666)
	if err != nil {
		return "", err
	}
	err = writeImage(f, epoch, src)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("wal: writing checkpoint %d: %w", epoch, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("wal: publishing checkpoint %d: %w", epoch, err)
	}
	if err := syncDir(dir); err != nil {
		// The rename happened but is not known durable; reporting failure
		// with the file still in place would let a checkpoint for an epoch
		// the caller then aborts shadow that epoch's real state later, so
		// undo the publish best-effort before failing.
		os.Remove(final)
		return "", err
	}
	return final, nil
}

// writeImage streams the checkpoint image of epoch into the empty file f
// through a 64 KiB buffer: the graph section and the labelling go straight
// from the snapshot to the file, so the image is never held in memory. The
// labelling length is patched in place once the stream is written, and the
// CRC is computed by reading the bytes outside the entry spans back from
// the file.
func writeImage(f *os.File, epoch uint64, src checkpointable) error {
	g := src.Graph()
	le := binary.LittleEndian
	bw := bufio.NewWriterSize(f, 64<<10)
	var u64 [8]byte
	putU64 := func(v uint64) {
		le.PutUint64(u64[:], v)
		bw.Write(u64[:])
	}
	graphLen := 8 + 8*g.NumEdges()
	bw.WriteString(ckptMagic)
	putU64(epoch)
	putU64(uint64(g.NumVertices()))
	putU64(graphLen)
	writeGraphSection(bw, g)
	lenAt := int64(len(ckptMagic)+3*8) + int64(graphLen) // labelling length, patched after the stream
	putU64(0)
	labelsLen, spans, err := src.SaveAt(bw, lenAt+8)
	if err != nil {
		return fmt.Errorf("wal: checkpoint labelling: %w", err)
	}
	for _, s := range spans {
		putU64(uint64(s.Off))
		putU64(uint64(s.Len))
	}
	var u32 [4]byte
	le.PutUint32(u32[:], uint32(len(spans)))
	bw.Write(u32[:])
	if err := bw.Flush(); err != nil { // bufio errors are sticky: this is the first one
		return err
	}
	le.PutUint64(u64[:], uint64(labelsLen))
	if _, err := f.WriteAt(u64[:], lenAt); err != nil {
		return err
	}
	// The CRC covers what crcSkipSpans covers; the bytes outside the spans
	// are read back in pieces rather than held.
	end := lenAt + 8 + labelsLen + 16*int64(len(spans)) + 4
	var crc uint32
	buf := make([]byte, 64<<10)
	for pos, i := int64(0), 0; pos < end; i++ {
		hi := end
		if i < len(spans) {
			hi = spans[i].Off
		}
		for pos < hi {
			n, err := f.ReadAt(buf[:min(int64(len(buf)), hi-pos)], pos)
			if err != nil {
				return err
			}
			crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
			pos += int64(n)
		}
		if i < len(spans) {
			pos = spans[i].Off + spans[i].Len
		}
	}
	le.PutUint32(u32[:], crc)
	_, err = f.WriteAt(u32[:], end)
	return err
}

// ckptState is a decoded checkpoint, ready to rebuild an oracle. Its
// sections alias the decoded image, so a mapped load attaches st.labels
// in place.
type ckptState struct {
	epoch    uint64
	vertices uint64
	graph    []byte
	labels   []byte
}

// decodeCheckpoint validates and decodes a checkpoint image, whether read
// from disk, mapped, or received over a replication link; path only labels
// errors. Validation touches everything except the label entry arenas,
// which the CRC skips (see the format comment).
func decodeCheckpoint(data []byte, path string) (ckptState, error) {
	le := binary.LittleEndian
	headerMin := len(ckptMagic) + 8*3 + 8 // fixed header + labelsLen
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return ckptState{}, fmt.Errorf("wal: %s: not a %s checkpoint file", path, ckptMagic)
	}
	if len(data) < headerMin+8 {
		return ckptState{}, fmt.Errorf("wal: %s: truncated checkpoint", path)
	}
	bodyLen, spans, err := readSpans(data, path)
	if err != nil {
		return ckptState{}, err
	}
	if bodyLen < headerMin {
		return ckptState{}, fmt.Errorf("wal: %s: truncated checkpoint", path)
	}
	if crcSkipSpans(data[:len(data)-4], spans) != le.Uint32(data[len(data)-4:]) {
		return ckptState{}, fmt.Errorf("wal: %s: checksum mismatch", path)
	}
	body := data[:bodyLen]
	off := len(ckptMagic)
	readU64 := func() (uint64, error) {
		if off+8 > len(body) {
			return 0, fmt.Errorf("wal: %s: truncated checkpoint", path)
		}
		v := le.Uint64(body[off:])
		off += 8
		return v, nil
	}
	st := ckptState{}
	if st.epoch, err = readU64(); err != nil {
		return ckptState{}, err
	}
	if st.vertices, err = readU64(); err != nil {
		return ckptState{}, err
	}
	glen, err := readU64()
	if err != nil {
		return ckptState{}, err
	}
	if uint64(len(body)-off) < glen {
		return ckptState{}, fmt.Errorf("wal: %s: truncated graph section", path)
	}
	st.graph = body[off : off+int(glen)]
	off += int(glen)
	llen, err := readU64()
	if err != nil {
		return ckptState{}, err
	}
	if uint64(len(body)-off) != llen {
		return ckptState{}, fmt.Errorf("wal: %s: labelling section length mismatch", path)
	}
	st.labels = body[off:]
	// The labelling holds an 8-byte offset per vertex, so a vertex count
	// its bytes cannot back is damage, not an allocation request.
	if st.vertices > uint64(len(st.labels))/8 {
		return ckptState{}, fmt.Errorf("wal: %s: %d vertices for a %d-byte labelling", path, st.vertices, len(st.labels))
	}
	return st, nil
}

// readSpans parses the trailer of a checkpoint image of at least 8 bytes:
// the span table, validated as sorted, non-overlapping and inside the body
// before it, and the body's length.
func readSpans(data []byte, path string) (int, []dynhl.Span, error) {
	le := binary.LittleEndian
	nspans := le.Uint32(data[len(data)-8:])
	if nspans > maxCkptSpans {
		return 0, nil, fmt.Errorf("wal: %s: implausible span count %d", path, nspans)
	}
	bodyLen := len(data) - 8 - 16*int(nspans)
	if bodyLen < 0 {
		return 0, nil, fmt.Errorf("wal: %s: truncated checkpoint", path)
	}
	spans := make([]dynhl.Span, nspans)
	prevEnd := int64(0)
	for i := range spans {
		at := bodyLen + 16*i
		off, slen := le.Uint64(data[at:]), le.Uint64(data[at+8:])
		if off > uint64(bodyLen) || slen > uint64(bodyLen)-off || int64(off) < prevEnd {
			return 0, nil, fmt.Errorf("wal: %s: span table out of bounds", path)
		}
		spans[i] = dynhl.Span{Off: int64(off), Len: int64(slen)}
		prevEnd = int64(off + slen)
	}
	return bodyLen, spans, nil
}

// listCheckpoints returns dir's checkpoint files, newest epoch first.
func listCheckpoints(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var cks []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ckptExt) {
			continue
		}
		epoch, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ckptExt), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unrecognised checkpoint file %q", name)
		}
		cks = append(cks, segment{first: epoch, path: filepath.Join(dir, name)})
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].first > cks[j].first })
	return cks, nil
}

// pruneCheckpoints removes all but the newest ckptKeep checkpoints and
// returns the epoch of the oldest one retained — the truncation bound for
// log segments.
func pruneCheckpoints(dir string) (uint64, error) {
	cks, err := listCheckpoints(dir)
	if err != nil {
		return 0, err
	}
	if len(cks) == 0 {
		return 0, fmt.Errorf("wal: no checkpoints in %s", dir)
	}
	for _, c := range cks[min(ckptKeep, len(cks)):] {
		if err := os.Remove(c.path); err != nil {
			return 0, fmt.Errorf("wal: pruning checkpoint: %w", err)
		}
	}
	kept := cks[:min(ckptKeep, len(cks))]
	if len(cks) > ckptKeep {
		if err := syncDir(dir); err != nil {
			return 0, err
		}
	}
	return kept[len(kept)-1].first, nil
}
