package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	dynhl "repro"
	"repro/internal/testutil"
)

// FuzzCheckpointImage feeds arbitrary bytes to copyIn, the checkpoint
// decode of a follower's shipped image and of a host without mmap. It must
// never panic, and any image it accepts must answer queries and save, its
// labelling surviving save → load → save byte for byte. Each input is
// tried twice: as it is, where the CRC rejects all damage outside the
// entry arenas and damage inside them reaches the label checks, and with
// its CRC restamped, so that damage to the header, graph section and
// offset tables reaches the decoders behind the CRC too. The seeds are the
// golden checkpoint and a small fresh one.
func FuzzCheckpointImage(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "checkpoint-00000000000000000003.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	idx, err := dynhl.Build(testutil.RandomConnectedGraph(12, 18, 5), dynhl.Options{Landmarks: 2})
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	d, err := Create(dir, idx, Options{Logf: f.Logf})
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	fresh, err := os.ReadFile(newestCheckpoint(f, dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkImage(t, data)
		if len(data) < 8 {
			return
		}
		stamped := append([]byte(nil), data...)
		if _, spans, err := readSpans(stamped, "fuzz"); err == nil {
			crc := crcSkipSpans(stamped[:len(stamped)-4], spans)
			binary.LittleEndian.PutUint32(stamped[len(stamped)-4:], crc)
			checkImage(t, stamped)
		}
	})
}

// checkImage decodes data with copyIn and, if it is accepted, queries the
// oracle and round-trips its labelling.
func checkImage(t *testing.T, data []byte) {
	x, _, err := copyIn(data, "fuzz")
	if err != nil {
		return
	}
	n := x.NumVertices()
	for u := 0; u < n; u += 3 {
		for v := 0; v < n; v += 5 {
			x.Query(uint32(u), uint32(v))
		}
	}
	var first, second bytes.Buffer
	if err := x.Save(&first); err != nil {
		t.Fatalf("saving an accepted image: %v", err)
	}
	y, err := dynhl.LoadIndex(bytes.NewReader(first.Bytes()), x.Graph())
	if err != nil {
		t.Fatalf("reloading an accepted image's labelling: %v", err)
	}
	if err := y.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save → load → save is not byte-identical")
	}
}
