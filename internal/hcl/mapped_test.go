package hcl

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/testutil"
)

// TestCodecV2RoundTrip pins the on-disk format: WriteTo writes the HCL3
// stream, ReadIndex reproduces the labelling exactly, and re-saving the
// loaded index is byte-identical. The same stream attached at an odd
// offset of a heap buffer, where no block can be served in place, goes
// through the decoder's fallback and must answer and save the same.
func TestCodecV2RoundTrip(t *testing.T) {
	g := testutil.RandomGraph(120, 220, 5)
	idx, err := Build(g, landmark.ByDegree(g, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if got := string(buf.Bytes()[:4]); got != codecMagic {
		t.Fatalf("WriteTo wrote %q, want %q", got, codecMagic)
	}
	back, err := ReadIndex(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if err := idx.EqualLabels(back); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-saving a loaded labelling must be byte-identical")
	}
	data := atOddOffset(buf.Bytes())
	odd, err := AttachIndex(data, nil, g)
	if err != nil {
		t.Fatalf("attach at an odd offset: %v", err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if l := odd.Label(0, v); len(l) > 0 {
			if at := uintptr(unsafe.Pointer(&l[0])); at >= lo && at < lo+uintptr(len(data)) {
				t.Fatal("a misaligned block was served in place, not decoded")
			}
		}
	}
	var oddSaved bytes.Buffer
	if _, err := odd.WriteTo(&oddSaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), oddSaved.Bytes()) {
		t.Fatal("the decoded fallback saves differently from the aligned attach")
	}
	for u := uint32(0); u < 120; u += 3 {
		for v := uint32(1); v < 120; v += 7 {
			if got, want := odd.Query(u, v), back.Query(u, v); got != want {
				t.Fatalf("Query(%d,%d): odd offset %d, aligned %d", u, v, got, want)
			}
		}
	}
}

// atOddOffset returns a copy of b that starts one byte into a heap buffer,
// misaligned for every type the decoder serves in place.
func atOddOffset(b []byte) []byte {
	buf := make([]byte, len(b)+1)
	copy(buf[1:], b)
	return buf[1:]
}

func TestWriteToMappableSpans(t *testing.T) {
	g := testutil.RandomGraph(200, 400, 7)
	idx, err := Build(g, landmark.ByDegree(g, 6), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, spans, err := idx.WriteToAt(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Off%int64(os.Getpagesize()) != 0 {
		t.Fatalf("entry span at %d not page-aligned (page %d)", sp.Off, os.Getpagesize())
	}
	if sp.Len != idx.NumEntries()*entryStride {
		t.Fatalf("span length %d, want %d entries × %d", sp.Len, idx.NumEntries(), entryStride)
	}
	if sp.Off+sp.Len > n {
		t.Fatalf("span [%d,+%d) past stream end %d", sp.Off, sp.Len, n)
	}
	// The span really is the raw native entry area: decode the first
	// non-empty label straight out of it.
	le := binary.LittleEndian
	for v := uint32(0); int(v) < idx.Packed(0).NumVertices(); v++ {
		if len(idx.Label(0, uint32(v))) == 0 {
			continue
		}
		var at int64
		for u := uint32(0); u < v; u++ {
			at += int64(len(idx.Label(0, uint32(u))))
		}
		raw := buf.Bytes()[sp.Off+at*entryStride:]
		if r := le.Uint16(raw); r != idx.Label(0, uint32(v))[0].Rank {
			t.Fatalf("span entry rank %d, want %d", r, idx.Label(0, uint32(v))[0].Rank)
		}
		if d := le.Uint32(raw[4:]); d != uint32(idx.Label(0, uint32(v))[0].D) {
			t.Fatalf("span entry dist %d, want %d", d, idx.Label(0, uint32(v))[0].D)
		}
		break
	}
}

// writeMappableFile serialises idx to a label file of its own.
func writeMappableFile(t *testing.T, idx *Labelled[*graph.Graph]) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.v2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadIndexMapped(t *testing.T) {
	if !arena.Supported() {
		t.Skip("mmap not supported")
	}
	g := testutil.RandomGraph(300, 700, 11)
	idx, err := Build(g, landmark.ByDegree(g, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := arena.MapFile(writeMappableFile(t, idx))
	if err != nil {
		t.Fatal(err)
	}
	back, err := AttachIndex(m.Data(), m, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.EqualLabels(back); err != nil {
		t.Fatal(err)
	}
	if back.Packed(0) == nil {
		t.Fatal("mapped index not packed")
	}
	if got := back.MappedBytes(); got != m.Len() {
		t.Fatalf("MappedBytes = %d, want %d", got, m.Len())
	}
	if got := back.Packed(0).MappedBytes(); got != m.Len() {
		t.Fatalf("Packed.MappedBytes = %d, want %d", got, m.Len())
	}
	for u := uint32(0); u < 50; u++ {
		for v := uint32(250); v < 300; v++ {
			if got, want := back.Query(u, v), idx.Query(u, v); got != want {
				t.Fatalf("Query(%d,%d): got %d, want %d", u, v, got, want)
			}
		}
	}
}

// TestMappedForkRepack pins the mixed heap/mapped chunk ownership: a fork
// of a mapped index writes labels of one chunk onto the heap, every other
// label still aliases the mapping, and the fork answers exactly like a
// copy-in index given the same churn.
func TestMappedForkRepack(t *testing.T) {
	if !arena.Supported() {
		t.Skip("mmap not supported")
	}
	// Ten chunks of 512 vertices, the last partial.
	g := testutil.RandomGraph(5000, 9000, 3)
	idx, err := Build(g, landmark.ByDegree(g, 6), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := writeMappableFile(t, idx)
	m, err := arena.MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := AttachIndex(m.Data(), m, g)
	if err != nil {
		t.Fatal(err)
	}
	copyIn, err := func() (*Labelled[*graph.Graph], error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ReadIndex(f, g)
	}()
	if err != nil {
		t.Fatal(err)
	}

	churn := func(x *Labelled[*graph.Graph]) *Labelled[*graph.Graph] {
		f := x.Fork(x.G)
		// Touch labels only in the second chunk.
		f.SetEntry(4500, 0, 3)
		f.SetEntry(4600, 1, 5)
		f.RemoveEntry(4700, 0)
		return f
	}
	fm, fc := churn(mapped), churn(copyIn)
	if err := fm.EqualLabels(fc); err != nil {
		t.Fatal(err)
	}
	// The untouched labels still alias the mapped parent, so the fork's
	// table still pins the mapping.
	for _, v := range []uint32{10, 4501} {
		if a, b := fm.Label(0, v), mapped.Label(0, v); len(a) == 0 || &a[0] != &b[0] {
			t.Fatalf("fork label of %d no longer aliases the mapping", v)
		}
	}
	if got := fm.Packed(0).MappedBytes(); got != m.Len() {
		t.Fatalf("fork Packed.MappedBytes = %d, want %d", got, m.Len())
	}
	if fc.Packed(0).MappedBytes() != 0 {
		t.Fatal("copy-in fork claims mapped bytes")
	}
	for u := uint32(4400); u < 4800; u += 7 {
		if got, want := fm.Query(0, u), fc.Query(0, u); got != want {
			t.Fatalf("Query(0,%d): mapped fork %d, copy-in fork %d", u, got, want)
		}
	}
}

func TestV2CodecCorruptionRejected(t *testing.T) {
	g := testutil.RandomGraph(80, 160, 9)
	idx, err := Build(g, landmark.ByDegree(g, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	if _, err := ReadIndex(bytes.NewReader(pristine), g); err != nil {
		t.Fatalf("pristine stream must load: %v", err)
	}
	nr := int64(len(idx.Landmarks))
	blockOff := 4 + 4 + 4 + 4*nr + 4*nr*nr // header before the label block
	le := binary.LittleEndian
	corrupt := map[string]func(b []byte) []byte{
		"total beyond nv*nr": func(b []byte) []byte {
			le.PutUint64(b[blockOff:], 1<<40)
			return b
		},
		"implausible pads": func(b []byte) []byte {
			le.PutUint32(b[blockOff+8:], 1<<24)
			return b
		},
		"offsets not monotonic": func(b []byte) []byte {
			// Second offset slot, pushed past total.
			offStart := blockOff + blockHeaderLen + int64(le.Uint32(b[blockOff+8:]))
			le.PutUint64(b[offStart+8:], 1<<50)
			return b
		},
		"truncated arena": func(b []byte) []byte {
			return b[:len(b)-5]
		},
		"unsorted entries": func(b []byte) []byte {
			// Duplicate the rank of the second entry of the first label
			// with ≥2 entries: ranks must strictly increase.
			offStart := blockOff + blockHeaderLen + int64(le.Uint32(b[blockOff+8:]))
			entPad := int64(le.Uint32(b[blockOff+12:]))
			entStart := offStart + 8*int64(idx.Packed(0).NumVertices()+1) + entPad
			for v := 0; v < idx.Packed(0).NumVertices(); v++ {
				if len(idx.Label(0, uint32(v))) >= 2 {
					var at int64
					for u := 0; u < v; u++ {
						at += int64(len(idx.Label(0, uint32(u))))
					}
					le.PutUint16(b[entStart+(at+1)*entryStride:], idx.Label(0, uint32(v))[0].Rank)
					return b
				}
			}
			t.Fatal("no label with two entries in test graph")
			return b
		},
	}
	for name, mut := range corrupt {
		data := mut(append([]byte(nil), pristine...))
		if _, err := ReadIndex(bytes.NewReader(data), g); err == nil {
			t.Errorf("%s: corrupted v2 stream loaded without error", name)
		}
		if _, err := AttachIndex(atOddOffset(data), nil, g); err == nil {
			t.Errorf("%s: corrupted v2 stream attached at an odd offset without error", name)
		}
	}
}
