package dhcl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arena"
	"repro/internal/hcl"
)

// TestCodecV2RoundTrip pins the on-disk format: WriteTo writes the DHL2
// stream and the copy-in ReadIndex reproduces the labelling exactly.
func TestCodecV2RoundTrip(t *testing.T) {
	g := randomDigraph(150, 500, 47)
	idx, err := hcl.Build(g, topLandmarks(g, 6), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:4]); got != codecMagic {
		t.Fatalf("WriteTo wrote %q, want %q", got, codecMagic)
	}
	loaded, err := hcl.ReadIndex(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.EqualLabels(idx); err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 150; u += 7 {
		for v := uint32(0); v < 150; v += 11 {
			if got, want := loaded.Query(u, v), idx.Query(u, v); got != want {
				t.Fatalf("loaded Query(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

// TestReadIndexMapped pins the zero-copy load: a DHL2 file served out of
// an mmap answers exactly like the index it was saved from, in both
// directions, and reports its mapping.
func TestReadIndexMapped(t *testing.T) {
	if !arena.Supported() {
		t.Skip("mmap not supported")
	}
	g := randomDigraph(200, 700, 49)
	idx, err := hcl.Build(g, topLandmarks(g, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.dhl2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := arena.MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := hcl.AttachIndex(m.Data(), m, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.EqualLabels(idx); err != nil {
		t.Fatal(err)
	}
	if got := mapped.MappedBytes(); got != m.Len() {
		t.Fatalf("MappedBytes = %d, want %d", got, m.Len())
	}
	for u := uint32(0); u < 200; u += 13 {
		for v := uint32(0); v < 200; v += 17 {
			if got, want := mapped.Query(u, v), idx.Query(u, v); got != want {
				t.Fatalf("mapped Query(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}
