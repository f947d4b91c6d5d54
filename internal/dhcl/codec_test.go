package dhcl

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// TestCodecRoundTrip pins that WriteTo → ReadIndex reproduces the directed
// labelling exactly (labels, highway, landmarks), that the loaded index
// arrives packed in both directions, and that a second save of the loaded
// index is byte-identical to the first — the checkpoint-equals-fresh-build
// guarantee.
func TestCodecRoundTrip(t *testing.T) {
	g := randomDigraph(120, 400, 41)
	idx, err := Build(g, topLandmarks(g, 5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.EqualLabels(idx); err != nil {
		t.Fatal(err)
	}
	if loaded.Packed(fwd) == nil || loaded.Packed(bwd) == nil {
		t.Fatal("loaded index must arrive packed in both directions")
	}
	for u := uint32(0); u < 120; u += 7 {
		for v := uint32(0); v < 120; v += 11 {
			if got, want := loaded.Query(u, v), idx.Query(u, v); got != want {
				t.Fatalf("loaded Query(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-saving a loaded labelling must be byte-identical")
	}
	if err := loaded.VerifyCover(); err != nil {
		t.Fatal(err)
	}
}

// TestCodecRejectsCorruption pins the untrusted-stream validation: a wrong
// or retired magic, a truncated stream and a vertex-count mismatch all
// refuse.
func TestCodecRejectsCorruption(t *testing.T) {
	g := randomDigraph(40, 120, 43)
	idx, err := Build(g, topLandmarks(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// A foreign magic and the retired DHL1 format both refuse with an
	// error naming the format, never a panic.
	for _, magic := range []string{"XXXX", "DHL1"} {
		bad := append([]byte(nil), blob...)
		copy(bad, magic)
		_, err := ReadIndex(bytes.NewReader(bad), g)
		if err == nil || !strings.Contains(err.Error(), magic) {
			t.Errorf("magic %q: got %v, want an unsupported-format error", magic, err)
		}
	}
	if _, err := ReadIndex(bytes.NewReader(blob[:len(blob)/2]), g); err == nil {
		t.Error("truncated stream accepted")
	}
	other := randomDigraph(41, 120, 44)
	if _, err := ReadIndex(bytes.NewReader(blob), other); err == nil {
		t.Error("vertex-count mismatch accepted")
	}

	// A header breaking the labelling's invariants refuses too: the
	// landmarks start at byte 12, the 3×3 highway right after them.
	patch := func(off int, v uint32) []byte {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[off:], v)
		return bad
	}
	const lm, hw = 12, 12 + 4*3
	for name, bad := range map[string][]byte{
		"duplicate landmark": patch(lm+4, idx.Landmarks[0]),
		"non-zero diagonal":  patch(hw+4*4, 1),
	} {
		if _, err := ReadIndex(bytes.NewReader(bad), g); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
