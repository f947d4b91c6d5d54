package hcl

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/landmark"
	"repro/internal/testutil"
)

func TestCodecRoundTrip(t *testing.T) {
	g := testutil.RandomGraph(120, 220, 5)
	idx, err := Build(g, landmark.ByDegree(g, 8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := ReadIndex(&buf, g)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if err := idx.EqualLabels(back); err != nil {
		t.Fatal(err)
	}
	// The restored index must answer queries.
	for u := uint32(0); u < 20; u++ {
		if got, want := back.Query(u, 100), idx.Query(u, 100); got != want {
			t.Fatalf("Query(%d,100): got %d, want %d", u, got, want)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	g := testutil.RandomGraph(10, 15, 1)
	idx, err := Build(g, landmark.ByDegree(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Retired format generations keep a well-formed body behind their old
	// magic: the refusal must come from the format check, not from damage.
	retired := func(magic string) string {
		return magic + buf.String()[len(codecMagic):]
	}
	// patch overwrites the u32 at byte offset off of the valid stream: the
	// landmarks start at 12, the 3×3 highway right after them.
	patch := func(off int, v uint32) string {
		b := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return string(b)
	}
	const lm, hw = 12, 12 + 4*3
	cases := map[string]string{
		"empty":              "",
		"bad magic":          "NOPE....",
		"truncated":          "HCL3\x0a\x00\x00\x00",
		"HCL1":               retired("HCL1"),
		"HCL2":               retired("HCL2"),
		"duplicate landmark": patch(lm+4, idx.Landmarks[0]),
		"non-zero diagonal":  patch(hw+4*4, 1),
		"asymmetric highway": patch(hw+4*1, idx.Highway(0, 1)+1),
	}
	for name, in := range cases {
		_, err := ReadIndex(strings.NewReader(in), g)
		if err == nil {
			t.Errorf("%s: expected error", name)
		} else if strings.HasPrefix(name, "HCL") && !strings.Contains(err.Error(), "unsupported index format") {
			t.Errorf("%s: got %v, want an unsupported-format error", name, err)
		}
	}
}

func TestCodecRejectsWrongGraph(t *testing.T) {
	g := testutil.RandomGraph(40, 60, 2)
	idx, err := Build(g, landmark.ByDegree(g, 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	other := testutil.RandomGraph(41, 60, 3)
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("vertex-count mismatch must be rejected")
	}
}

func TestCodecCorruptedLabelRejected(t *testing.T) {
	g := testutil.RandomGraph(30, 50, 4)
	idx, err := Build(g, landmark.ByDegree(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt a byte near the end (inside label entries).
	data[len(data)-3] ^= 0xFF
	if _, err := ReadIndex(bytes.NewReader(data), g); err == nil {
		t.Log("corruption in distance payload is not detectable by structure alone; ensure cover check catches it")
		back, err := ReadIndex(bytes.NewReader(data), g)
		if err == nil {
			if err := back.VerifyCover(); err == nil {
				t.Error("corrupted index passed both structural and cover checks")
			}
		}
	}
}

// TestReadIndexAllocatesByBytes pins that an untrusted stream cannot make
// the reader allocate by claim: sizes a header declares are only ever
// backed by memory as the bytes that fill them arrive. Each stream below
// is a few KiB to a few hundred KiB, cut short right after its claim.
func TestReadIndexAllocatesByBytes(t *testing.T) {
	const nv = 20000
	g := testutil.RandomGraph(nv, nv, 8)
	le := binary.LittleEndian
	header := func(nr int) []byte {
		b := []byte(codecMagic)
		b = le.AppendUint32(b, nv)
		b = le.AppendUint32(b, uint32(nr))
		for r := 0; r < nr; r++ {
			b = le.AppendUint32(b, uint32(r))
		}
		return b
	}
	// |R| = 4096 claims a 64 MiB highway behind 16 KiB of landmarks.
	hugeHighway := header(4096)
	// |R| = 64 with a complete highway, then a label block whose offsets
	// claim the maximum 64 entries for every vertex (10 MiB of entries)
	// followed by no entries at all.
	hugeBlock := header(64)
	for i := 0; i < 64*64; i++ {
		hugeBlock = le.AppendUint32(hugeBlock, min(uint32(i%65), 1)) // zero diagonal
	}
	hugeBlock = le.AppendUint64(hugeBlock, 64*nv)
	hugeBlock = le.AppendUint64(hugeBlock, 0) // both pads zero
	for v := uint64(0); v <= nv; v++ {
		hugeBlock = le.AppendUint64(hugeBlock, 64*v)
	}
	for name, stream := range map[string][]byte{"highway": hugeHighway, "label block": hugeBlock} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadIndex(bytes.NewReader(stream), g)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated stream accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("%s: a %d-byte stream allocated %d bytes", name, len(stream), got)
		}
	}
}
