package dynhl_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	dynhl "repro"
	"repro/internal/arena"
	"repro/internal/testutil"
	"repro/internal/wal"
)

// The on-disk format is pinned by golden files written by an earlier
// release (testdata/): the label streams of all three variants (HCL3,
// DHL2, WHL2) and an HLWCKPT2 checkpoint. They must keep loading, copy-in
// and mapped, and re-saving what they load must reproduce them byte for
// byte. goldenOracles and goldenOps rebuild the exact states the files
// were written from.

// goldenOracles builds the three deterministic labellings behind the
// golden label files.
func goldenOracles(t testing.TB) (*dynhl.Index, *dynhl.DirectedIndex, *dynhl.WeightedIndex) {
	t.Helper()
	const n = 300
	u, err := dynhl.Build(testutil.RandomConnectedGraph(n, 2*n, 31), dynhl.Options{Landmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	dg := dynhl.NewDigraph(n)
	wg := dynhl.NewWeightedGraph(n)
	for i := 0; i < n; i++ {
		dg.AddVertex()
		wg.AddVertex()
	}
	for e := 0; e < 3*n; e++ {
		a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if a == b {
			continue
		}
		if !dg.HasEdge(a, b) {
			dg.MustAddEdge(a, b)
		}
		if !wg.HasEdge(a, b) {
			wg.MustAddEdge(a, b, dynhl.Dist(1+rng.Intn(9)))
		}
	}
	d, err := dynhl.BuildDirected(dg, dynhl.Options{Landmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, err := dynhl.BuildWeighted(wg, dynhl.Options{Landmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	return u, d, w
}

// goldenOps is the batch sequence applied to the undirected oracle before
// the golden checkpoint was taken: one insertion per epoch.
func goldenOps(u *dynhl.Index) [][]dynhl.Op {
	var batches [][]dynhl.Op
	for _, e := range testutil.NonEdges(u.Graph(), 3, 41) {
		batches = append(batches, []dynhl.Op{dynhl.InsertEdgeOp(e[0], e[1], 0)})
	}
	return batches
}

// goldenBytesComparable reports whether this host lays streams out like
// the one that wrote the golden files: entry areas are page-aligned, so
// re-saved bytes match only at the same page size.
func goldenBytesComparable() bool { return os.Getpagesize() == 4096 }

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenLabelFiles(t *testing.T) {
	u, d, w := goldenOracles(t)
	cases := []struct {
		file   string
		built  dynhl.Oracle
		copyIn func(data []byte) (dynhl.Oracle, error)
	}{
		{"labels.hcl3", u,
			func(data []byte) (dynhl.Oracle, error) { return dynhl.LoadIndex(bytes.NewReader(data), u.Graph()) }},
		{"labels.dhl2", d,
			func(data []byte) (dynhl.Oracle, error) {
				return dynhl.LoadDirectedIndex(bytes.NewReader(data), d.Graph())
			}},
		{"labels.whl2", w,
			func(data []byte) (dynhl.Oracle, error) {
				return dynhl.LoadWeightedIndex(bytes.NewReader(data), w.Graph())
			}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			golden := readGolden(t, c.file)
			var fresh bytes.Buffer
			if err := c.built.(dynhl.Saver).Save(&fresh); err != nil {
				t.Fatal(err)
			}
			if goldenBytesComparable() && !bytes.Equal(fresh.Bytes(), golden) {
				t.Fatal("Save no longer writes the golden format")
			}
			loaded := map[string]dynhl.Oracle{}
			x, err := c.copyIn(golden)
			if err != nil {
				t.Fatalf("copy-in load: %v", err)
			}
			loaded["copy-in"] = x
			// Store.LoadFile maps the file wherever this host can.
			st := dynhl.NewStore(c.built)
			if _, err := st.LoadFile(filepath.Join("testdata", c.file)); err != nil {
				t.Fatalf("file load: %v", err)
			}
			if arena.Supported() && st.Stats().MappedBytes == 0 {
				t.Fatal("file load on a host with mmap reports MappedBytes=0")
			}
			loaded["mapped"] = st.Unwrap()
			for how, x := range loaded {
				var again bytes.Buffer
				if err := x.(dynhl.Saver).Save(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), fresh.Bytes()) {
					t.Fatalf("%s: re-saving the golden file changed its bytes", how)
				}
				n := uint32(x.NumVertices())
				for a := uint32(0); a < n; a += 7 {
					for b := uint32(1); b < n; b += 11 {
						if got, want := x.Query(a, b), c.built.Query(a, b); got != want {
							t.Fatalf("%s: Query(%d,%d) = %d, want %d", how, a, b, got, want)
						}
					}
				}
			}
		})
	}
}

// TestLoadFileRejectsDamagedFiles feeds Store.LoadFile a truncated label
// file, an empty one (which cannot be mapped, so it takes the copy-in
// read) and a missing one: each must fail and leave the epoch and the
// served labelling as they were.
func TestLoadFileRejectsDamagedFiles(t *testing.T) {
	u, _, _ := goldenOracles(t)
	st := dynhl.NewStore(u)
	var before bytes.Buffer
	if err := st.Save(&before); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	golden := readGolden(t, "labels.hcl3")
	files := map[string][]byte{"truncated": golden[:len(golden)/2], "empty": nil}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"truncated", "empty", "missing"} {
		epoch, err := st.LoadFile(filepath.Join(dir, name))
		if err == nil {
			t.Fatalf("%s label file accepted", name)
		}
		if epoch != 0 || st.Epoch() != 0 {
			t.Fatalf("%s label file moved the epoch to %d", name, st.Epoch())
		}
	}
	var after bytes.Buffer
	if err := st.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("a rejected label file changed the served labelling")
	}
}

func TestGoldenCheckpoint(t *testing.T) {
	const name = "checkpoint-00000000000000000003.ckpt"
	golden := readGolden(t, name)
	u, _, _ := goldenOracles(t)
	want := dynhl.NewStore(u)
	for _, ops := range goldenOps(u) {
		if _, err := want.ApplyCtx(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	}
	var wantLabels bytes.Buffer
	if err := want.Save(&wantLabels); err != nil {
		t.Fatal(err)
	}
	// The writer reproduces the golden file byte for byte.
	dir := t.TempDir()
	d, err := wal.Create(dir, want, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("checkpoint writer output (%d bytes) differs from the golden file (%d bytes)", len(written), len(golden))
	}
	// Recovery maps the checkpoint wherever this host can; the reference
	// is a copy-in load of the same labelling over a copy of its graph.
	copyIn, err := dynhl.LoadIndex(bytes.NewReader(wantLabels.Bytes()), want.Unwrap().(*dynhl.Index).Graph().Fork())
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = wal.Recover(dir, wal.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := d.Store()
	if st.Epoch() != want.Epoch() {
		t.Fatalf("recovered epoch %d, want %d", st.Epoch(), want.Epoch())
	}
	if arena.Supported() && st.Stats().MappedBytes == 0 {
		t.Fatal("recovery of the golden checkpoint on a host with mmap reports MappedBytes=0")
	}
	for how, x := range map[string]dynhl.Saver{"copy-in": copyIn, "recovered": st} {
		var got bytes.Buffer
		if err := x.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantLabels.Bytes()) {
			t.Fatalf("%s labelling differs from the rebuilt one", how)
		}
	}
	n := uint32(st.NumVertices())
	for a := uint32(0); a < n; a += 7 {
		for b := uint32(1); b < n; b += 11 {
			if got, want := st.Query(a, b), copyIn.Query(a, b); got != want {
				t.Fatalf("Query(%d,%d): recovered %d, copy-in %d", a, b, got, want)
			}
		}
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}
