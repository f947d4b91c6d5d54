package whcl

import (
	"bytes"
	"encoding/binary"
	"repro/internal/hcl"
	"strings"
	"testing"
)

// TestCodecRoundTrip pins that WriteTo → ReadIndex reproduces the weighted
// labelling exactly, that the loaded index arrives packed, and that a
// second save is byte-identical to the first.
func TestCodecRoundTrip(t *testing.T) {
	g := randomWeighted(120, 400, 7, 51)
	idx, err := hcl.Build(g, topLandmarks(g, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := hcl.ReadIndex(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.EqualLabels(idx); err != nil {
		t.Fatal(err)
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

// TestCodecRejectsCorruption pins the untrusted-stream validation.
func TestCodecRejectsCorruption(t *testing.T) {
	g := randomWeighted(40, 120, 5, 53)
	idx, err := hcl.Build(g, topLandmarks(g, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// A foreign magic and the retired WHL1 format both refuse with an
	// error naming the format, never a panic.
	for _, magic := range []string{"XXXX", "WHL1"} {
		bad := append([]byte(nil), blob...)
		copy(bad, magic)
		_, err := hcl.ReadIndex(bytes.NewReader(bad), g)
		if err == nil || !strings.Contains(err.Error(), magic) {
			t.Errorf("magic %q: got %v, want an unsupported-format error", magic, err)
		}
	}
	if _, err := hcl.ReadIndex(bytes.NewReader(blob[:len(blob)/2]), g); err == nil {
		t.Error("truncated stream accepted")
	}
	other := randomWeighted(41, 120, 5, 54)
	if _, err := hcl.ReadIndex(bytes.NewReader(blob), other); err == nil {
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
		"asymmetric highway": patch(hw+4*1, idx.Highway(0, 1)+1),
	} {
		if _, err := hcl.ReadIndex(bytes.NewReader(bad), g); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
