package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	dynhl "repro"
)

// abandon kills the background worker without flushing or checkpointing —
// the test stand-in for a crashed process: whatever is on disk is all a
// recovery gets.
func (d *Durable) abandon() {
	if d.closed.CompareAndSwap(false, true) {
		close(d.stop)
		d.wg.Wait()
	}
}

// quietOpts silences recovery warnings in tests that expect them.
func quietOpts(t *testing.T) Options {
	t.Helper()
	return Options{Logf: t.Logf}
}

// buildIndex returns a small random connected oracle and its seed graph.
func buildIndex(t *testing.T, n int, seed int64) *dynhl.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := dynhl.NewGraph(n)
	g.EnsureVertex(uint32(n - 1))
	for v := 1; v < n; v++ {
		g.MustAddEdge(uint32(v), uint32(rng.Intn(v))) // random tree: connected
	}
	for i := 0; i < n; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// randomOps returns a batch of valid mutations against mirror, applying
// them to mirror as it goes so later ops stay valid.
func randomOps(rng *rand.Rand, mirror *dynhl.Graph, k int) []dynhl.Op {
	var ops []dynhl.Op
	for len(ops) < k {
		n := mirror.NumVertices()
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		switch rng.Intn(4) {
		case 0, 1: // insert a missing edge
			if u != v && !mirror.HasEdge(u, v) {
				mirror.MustAddEdge(u, v)
				ops = append(ops, dynhl.InsertEdgeOp(u, v, 0))
			}
		case 2: // delete a present edge
			if u != v && mirror.HasEdge(u, v) && mirror.Degree(u) > 1 && mirror.Degree(v) > 1 {
				if err := mirror.RemoveEdge(u, v); err == nil {
					ops = append(ops, dynhl.DeleteEdgeOp(u, v))
				}
			}
		case 3: // insert a vertex joined to two existing ones
			if u != v {
				id := mirror.AddVertex()
				mirror.MustAddEdge(id, u)
				mirror.MustAddEdge(id, v)
				ops = append(ops, dynhl.InsertVertexOp(dynhl.Arcs(u, v)...))
			}
		}
	}
	return ops
}

// freshEdge returns an edge absent from the store's current graph, so an
// InsertEdgeOp built from it always applies whatever the build seed was.
func freshEdge(t *testing.T, store *dynhl.Store) (uint32, uint32) {
	t.Helper()
	g := store.Unwrap().(*dynhl.Index).Graph()
	n := uint32(g.NumVertices())
	for u := uint32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	t.Fatal("graph is complete")
	return 0, 0
}

// insertFresh applies a one-op batch inserting a currently missing edge.
func insertFresh(t *testing.T, store *dynhl.Store) {
	t.Helper()
	u, v := freshEdge(t, store)
	if _, err := store.Apply([]dynhl.Op{dynhl.InsertEdgeOp(u, v, 0)}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	batches := [][]dynhl.Op{
		{dynhl.InsertEdgeOp(1, 2, 0)},
		{dynhl.DeleteEdgeOp(7, 9), dynhl.DeleteVertexOp(3)},
		{dynhl.InsertVertexOp(dynhl.Arc{To: 5}, dynhl.Arc{To: 6, W: 3, In: true})},
		{}, // empty batch records are legal at the codec level
	}
	var buf []byte
	var err error
	for i, ops := range batches {
		buf, err = appendRecord(buf, uint64(i+1), ops)
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i, want := range batches {
		rec, next, err := decodeRecord(buf, off)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.epoch != uint64(i+1) {
			t.Fatalf("record %d: epoch %d", i, rec.epoch)
		}
		if len(rec.ops) != len(want) {
			t.Fatalf("record %d: %d ops, want %d", i, len(rec.ops), len(want))
		}
		for j, op := range rec.ops {
			if op.Kind != want[j].Kind || op.U != want[j].U || op.V != want[j].V || op.W != want[j].W || len(op.Arcs) != len(want[j].Arcs) {
				t.Fatalf("record %d op %d: got %+v want %+v", i, j, op, want[j])
			}
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestCreateRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 40, 1)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()
	if _, err := store.Apply([]dynhl.Op{dynhl.InsertVertexOp(dynhl.Arcs(0, 7)...)}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Apply([]dynhl.Op{dynhl.InsertEdgeOp(3, 40, 0)}); err != nil {
		t.Fatal(err)
	}
	wantEpoch := store.Epoch()
	var wantLabels bytes.Buffer
	if err := store.Save(&wantLabels); err != nil {
		t.Fatal(err)
	}
	d.abandon() // crash: no Close, no final checkpoint

	r, err := Recover(dir, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	if got := r.Replayed(); got != 2 {
		t.Fatalf("replayed %d records, want 2", got)
	}
	var gotLabels bytes.Buffer
	if err := r.Store().Save(&gotLabels); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLabels.Bytes(), wantLabels.Bytes()) {
		t.Fatal("recovered labelling differs from the pre-crash one")
	}
	if err := r.Store().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverNoState(t *testing.T) {
	if _, err := Recover(t.TempDir(), quietOpts(t)); !errors.Is(err, ErrNoState) {
		t.Fatalf("got %v, want ErrNoState", err)
	}
	if _, err := Recover(filepath.Join(t.TempDir(), "missing"), quietOpts(t)); !errors.Is(err, ErrNoState) {
		t.Fatalf("got %v, want ErrNoState for a missing directory", err)
	}
}

func TestCreateRefusesUncheckpointable(t *testing.T) {
	g := dynhl.NewGraph(4)
	g.EnsureVertex(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	dg := dynhl.NewDigraph(4)
	for i := 0; i < 4; i++ {
		dg.AddVertex()
	}
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}} {
		if _, err := dg.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := dynhl.BuildDirected(dg, dynhl.Options{Landmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(t.TempDir(), idx, quietOpts(t)); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("directed oracle: got %v, want ErrUnsupported", err)
	}
}

// TestTornTail truncates the final record at every possible byte boundary
// and checks recovery drops exactly that record, keeping every epoch whose
// append completed.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 30, 2)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()
	insertFresh(t, store)
	seg := activeSegment(t, dir)
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	insertFresh(t, store)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	d.abandon()

	for cut := len(whole) + 1; cut < len(full); cut++ {
		t.Run("", func(t *testing.T) {
			dir2 := t.TempDir()
			copyTree(t, dir, dir2)
			if err := os.WriteFile(filepath.Join(dir2, "wal", filepath.Base(seg)), full[:cut], 0o666); err != nil {
				t.Fatal(err)
			}
			r, err := Recover(dir2, quietOpts(t))
			if err != nil {
				t.Fatalf("cut at %d bytes: %v", cut, err)
			}
			defer r.abandon()
			if got := r.Epoch(); got != 1 {
				t.Fatalf("cut at %d bytes: epoch %d, want 1 (second record torn)", cut, got)
			}
			// The torn bytes must be gone: a fresh recovery replays cleanly.
			if data, err := os.ReadFile(filepath.Join(dir2, "wal", filepath.Base(seg))); err != nil || len(data) != len(whole) {
				t.Fatalf("cut at %d: torn tail not truncated (now %d bytes, want %d; err %v)", cut, len(data), len(whole), err)
			}
		})
	}
}

// TestCorruptRecord flips bytes inside completed records and checks
// recovery refuses instead of replaying damaged data.
func TestCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 30, 3)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()
	for i := 0; i < 3; i++ {
		insertFresh(t, store)
	}
	seg := activeSegment(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	d.abandon()

	for name, corrupt := range map[string]func([]byte) []byte{
		"payload byte of the first record": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[frameHeader+4] ^= 0xff
			return c
		},
		"crc of a middle record": func(b []byte) []byte {
			_, second, err := decodeRecord(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			c := append([]byte(nil), b...)
			c[second+5] ^= 0xff
			return c
		},
		"implausible length mid-log": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0], c[1], c[2], c[3] = 0xff, 0xff, 0xff, 0x7f
			return c
		},
		"crc of the final record": func(b []byte) []byte {
			_, second, err := decodeRecord(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, third, err := decodeRecord(b, second)
			if err != nil {
				t.Fatal(err)
			}
			c := append([]byte(nil), b...)
			c[third+5] ^= 0xff
			return c
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir2 := t.TempDir()
			copyTree(t, dir, dir2)
			if err := os.WriteFile(filepath.Join(dir2, "wal", filepath.Base(seg)), corrupt(full), 0o666); err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(dir2, quietOpts(t)); err == nil {
				t.Fatal("recovered over corrupted log data")
			} else if !strings.Contains(err.Error(), "refusing") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// oneRecordSegments writes n single-op records into a fresh durable
// directory, one record per segment, and abandons it as a crash would. It
// returns the directory and its segments in epoch order.
func oneRecordSegments(t *testing.T, n int) (string, []segment) {
	t.Helper()
	dir := t.TempDir()
	opts := quietOpts(t)
	opts.SegmentBytes = 1 // rotate after every record
	d, err := Create(dir, buildIndex(t, 30, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, d.Store(), n)
	d.abandon()
	segs, err := listSegments(walDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < n {
		t.Fatalf("%d segments for %d records", len(segs), n)
	}
	return dir, segs
}

// TestTornRecordMidLog cuts a record short in a segment that later
// segments follow. A crash tears only the final append, so recovery
// refuses instead of truncating.
func TestTornRecordMidLog(t *testing.T) {
	for i := 0; i < 2; i++ {
		dir, segs := oneRecordSegments(t, 3)
		cutTail(t, segs[i].path, 4)
		if _, err := Recover(dir, quietOpts(t)); err == nil {
			t.Fatalf("recovered over a torn record in segment %d of %d", i, len(segs))
		} else if !strings.Contains(err.Error(), "refusing") {
			t.Fatalf("segment %d: unexpected error: %v", i, err)
		}
	}
}

// TestRecoverRefusesEpochGap removes one segment of the log, so the
// records beyond the checkpoint no longer follow each other epoch by
// epoch: recovery refuses rather than skip the missing epochs.
func TestRecoverRefusesEpochGap(t *testing.T) {
	for i := 0; i < 2; i++ {
		dir, segs := oneRecordSegments(t, 3)
		if err := os.Remove(segs[i].path); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(dir, quietOpts(t)); err == nil {
			t.Fatalf("recovered with the segment of epoch %d missing", segs[i].first)
		} else if !strings.Contains(err.Error(), "refusing") {
			t.Fatalf("epoch %d missing: unexpected error: %v", segs[i].first, err)
		}
	}
}

// TestCheckpointTruncatesLog checks a checkpoint rotates the log, prunes
// superseded segments once two checkpoints cover them, and that recovery
// after a crash replays only the tail.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 40, 4)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()
	insertFresh(t, store)
	insertFresh(t, store)
	if _, err := d.Checkpoint(); err != nil { // checkpoint #2 (after the base)
		t.Fatal(err)
	}
	insertFresh(t, store)
	if _, err := d.Checkpoint(); err != nil { // checkpoint #3: base pruned, first segment covered
		t.Fatal(err)
	}
	insertFresh(t, store)

	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != ckptKeep {
		t.Fatalf("%d checkpoints on disk, want %d", len(cks), ckptKeep)
	}
	segs, err := listSegments(walDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Records 1-2 are covered by both retained checkpoints; their segment
	// must be gone. The tail (record 4) must survive.
	if len(segs) == 0 || segs[0].first <= 2 {
		t.Fatalf("segments %+v still include fully covered records", segs)
	}
	wantEpoch := store.Epoch()
	d.abandon()

	r, err := Recover(dir, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	if got := r.Replayed(); got != 1 {
		t.Fatalf("replayed %d records, want 1 (just the post-checkpoint tail)", got)
	}
}

// TestRecoverFallsBackToOlderCheckpoint damages the newest checkpoint and
// checks recovery uses the previous one plus a longer replay.
func TestRecoverFallsBackToOlderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 40, 5)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()
	insertFresh(t, store)
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertFresh(t, store)
	wantEpoch := store.Epoch()
	d.abandon()

	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cks[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(cks[0].path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(dir, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	if got := r.Replayed(); got != 2 {
		t.Fatalf("replayed %d records, want 2 (full tail over the older checkpoint)", got)
	}
	if err := r.Store().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseCheckpointsCleanly checks a graceful shutdown leaves nothing to
// replay and a closed store refuses further publishes.
func TestCloseCheckpointsCleanly(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, buildIndex(t, 30, 6), quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()
	insertFresh(t, store)
	wantEpoch := store.Epoch()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	u, v := freshEdge(t, store)
	if _, err := store.Apply([]dynhl.Op{dynhl.InsertEdgeOp(u, v, 0)}); err == nil {
		t.Fatal("closed durable store accepted a publish")
	}
	if got := store.Epoch(); got != wantEpoch {
		t.Fatalf("refused publish advanced the epoch to %d", got)
	}

	r, err := Recover(dir, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Replayed(); got != 0 {
		t.Fatalf("replayed %d records after a clean close, want 0", got)
	}
	if got := r.Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
}

// TestLoadPublishesDurably checks an epoch published without an op batch
// (Store.Load) survives a crash via its synchronous checkpoint.
func TestLoadPublishesDurably(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 30, 7)
	var labels bytes.Buffer
	if err := idx.Save(&labels); err != nil {
		t.Fatal(err)
	}
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()
	if err := store.Load(bytes.NewReader(labels.Bytes())); err != nil {
		t.Fatal(err)
	}
	wantEpoch := store.Epoch()
	d.abandon()

	r, err := Recover(dir, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d (the Load publish)", got, wantEpoch)
	}
	if got := r.Replayed(); got != 0 {
		t.Fatalf("replayed %d records, want 0 (the Load was checkpointed)", got)
	}
}

func TestStatsSurface(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, buildIndex(t, 30, 8), quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	store := d.Store()
	insertFresh(t, store)
	st := store.Stats()
	if st.Epoch != 1 {
		t.Fatalf("stats epoch %d, want 1", st.Epoch)
	}
	if st.Durability == nil {
		t.Fatal("store with attached WAL reports no durability stats")
	}
	ds := *st.Durability
	if ds.Records != 1 || ds.Bytes == 0 {
		t.Fatalf("durability stats %+v: want 1 record and nonzero bytes", ds)
	}
	if ds.DurableEpoch != 1 {
		t.Fatalf("durable epoch %d, want 1 under SyncAlways", ds.DurableEpoch)
	}
	if ds.Syncs == 0 || ds.LastSync.IsZero() {
		t.Fatalf("durability stats %+v: want fsync evidence under SyncAlways", ds)
	}
	if ds.Segments == 0 {
		t.Fatalf("durability stats %+v: want at least one live segment", ds)
	}
}

// activeSegment returns the newest segment file.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(walDir(dir))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	return segs[len(segs)-1].path
}

// copyTree copies the durable directory so tests can damage a private copy.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"always", SyncAlways},
		{"interval", SyncInterval},
		{"off", SyncOff},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("Policy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("parsed an unknown policy")
	}
	if s := Policy(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown policy stringer: %q", s)
	}
}

// TestOpenBootPaths checks Open builds fresh state on an empty directory
// and recovers on a populated one — never calling build twice.
func TestOpenBootPaths(t *testing.T) {
	dir := t.TempDir()
	builds := 0
	build := func() (dynhl.Oracle, error) {
		builds++
		return buildIndex(t, 30, 9), nil
	}
	d, err := Open(dir, build, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("fresh Open called build %d times, want 1", builds)
	}
	insertFresh(t, d.Store())
	wantEpoch := d.Epoch()
	d.abandon()

	d2, err := Open(dir, build, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if builds != 1 {
		t.Fatalf("recovering Open called build again (%d calls)", builds)
	}
	if got := d2.Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}

	if _, err := Open(dir, func() (dynhl.Oracle, error) {
		return nil, errors.New("boom")
	}, quietOpts(t)); err != nil {
		t.Fatalf("Open with state must not need build: %v", err)
	}
}

// TestAutoCheckpoint checks the background checkpointer fires after
// CheckpointEvery records and truncates what it supersedes.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, buildIndex(t, 30, 11), Options{CheckpointEvery: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	store := d.Store()
	for i := 0; i < 2; i++ {
		insertFresh(t, store)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.DurabilityStats().CheckpointEpoch < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after %d records (stats %+v)", 2, d.DurabilityStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIntervalFlusher checks the background fsync under SyncInterval
// advances the durable watermark without further appends.
func TestIntervalFlusher(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, buildIndex(t, 30, 12), Options{
		Fsync:         SyncInterval,
		FsyncInterval: 20 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	insertFresh(t, d.Store()) // first append syncs (lastSync is zero)...
	insertFresh(t, d.Store()) // ...the second rides the interval, unsynced
	deadline := time.Now().Add(10 * time.Second)
	for d.DurabilityStats().DurableEpoch < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("interval flusher never synced the tail (stats %+v)", d.DurabilityStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAppendFailureRollsBack checks a failed append never leaves bytes for
// a replay to trip over: with the file forced to fail (closed underneath),
// the append errors, and when not even truncation can clean up, the log
// poisons itself and refuses further appends instead of writing records
// past a damaged tail.
func TestAppendFailureRollsBack(t *testing.T) {
	lg, err := openLog(t.TempDir(), 1, 0, SyncAlways, time.Second, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(1, []dynhl.Op{dynhl.InsertEdgeOp(0, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	lg.f.Close() // force writes (and truncates) to fail
	if _, err := lg.Append(2, []dynhl.Op{dynhl.InsertEdgeOp(1, 2, 0)}); err == nil {
		t.Fatal("append on a dead file reported success")
	}
	// Nothing landed (the write itself failed), so the log stays clean.
	if lg.poisoned {
		t.Fatal("zero-byte append failure poisoned the log")
	}
	if lg.lastEpoch != 1 {
		t.Fatalf("failed append advanced lastEpoch to %d", lg.lastEpoch)
	}
	// The poison path proper: bytes landed but the truncate cannot undo
	// them (dead file again) — the log must fail stop.
	lg.mu.Lock()
	lg.size += 10
	lg.rollbackLocked(10)
	lg.mu.Unlock()
	if !lg.poisoned {
		t.Fatal("unrollable partial append did not poison the log")
	}
	if _, err := lg.Append(3, nil); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append on a poisoned log: got %v, want poisoned fail-stop", err)
	}
}
