package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	dynhl "repro"
	"repro/internal/arena"
)

// samplePairs returns a deterministic spread of query pairs over n vertices.
func samplePairs(n int) []dynhl.Pair {
	var pairs []dynhl.Pair
	for u := 0; u < n; u += 3 {
		for v := 0; v < n; v += 7 {
			pairs = append(pairs, dynhl.Pair{U: uint32(u), V: uint32(v)})
		}
	}
	return pairs
}

// newestCheckpoint returns the path of dir's newest checkpoint file.
func newestCheckpoint(t testing.TB, dir string) string {
	t.Helper()
	cks, err := listCheckpoints(dir)
	if err != nil || len(cks) == 0 {
		t.Fatalf("listing checkpoints: %v (%d found)", err, len(cks))
	}
	return cks[0].path
}

// TestCheckpointV2RoundTrip pins the on-disk format — checkpoints are
// written in the HLWCKPT2 layout — and its copy-in decode.
func TestCheckpointV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 60, 1)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	path := newestCheckpoint(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		t.Fatalf("checkpoint magic %q, want %q", data[:len(ckptMagic)], ckptMagic)
	}
	back, _, err := copyIn(data, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range samplePairs(60) {
		if got, want := back.Query(p.U, p.V), idx.Query(p.U, p.V); got != want {
			t.Fatalf("rebuilt Query(%d,%d) = %d, want %d", p.U, p.V, got, want)
		}
	}
}

// TestCheckpointV2CorruptionRejected pins the CRC's coverage: damage
// anywhere outside the label entry arenas is caught; damage inside them
// is not (the CRC skips the spans so a mapped boot never faults the entry
// pages — checkpoints are node-local trusted state, see checkpoint.go).
func TestCheckpointV2CorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 60, 2)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	d.abandon()

	path := newestCheckpoint(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeCheckpoint(data, path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	nspans := le.Uint32(data[len(data)-8:])
	if nspans != 1 {
		t.Fatalf("undirected checkpoint carries %d spans, want 1", nspans)
	}
	spanOff := int64(le.Uint64(data[len(data)-8-16:]))
	spanLen := int64(le.Uint64(data[len(data)-8-8:]))
	if spanLen == 0 {
		t.Fatal("empty entry span")
	}

	flip := func(at int64) []byte {
		c := append([]byte(nil), data...)
		c[at] ^= 0xff
		return c
	}
	// Headers, graph bytes, offsets: all caught.
	for _, at := range []int64{int64(len(ckptMagic)) + 3, 40, st.labelsOff + 5, spanOff - 1} {
		if _, err := decodeCheckpoint(flip(at), path); err == nil {
			t.Fatalf("corruption at offset %d not detected", at)
		}
	}
	// The span table itself is covered too (it sits after the spans).
	if _, err := decodeCheckpoint(flip(int64(len(data))-8-16), path); err == nil {
		t.Fatal("span-table corruption not detected")
	}
	// Inside the entry arena: deliberately not covered.
	if _, err := decodeCheckpoint(flip(spanOff+spanLen/2), path); err != nil {
		t.Fatalf("entry-arena bytes must be outside the CRC, got %v", err)
	}
	// An implausible span count is damage, not an allocation request.
	huge := append([]byte(nil), data...)
	le.PutUint32(huge[len(huge)-8:], maxCkptSpans+1)
	if _, err := decodeCheckpoint(huge, path); err == nil {
		t.Fatal("implausible span count accepted")
	}
	// The retired HLWCKPT1 generation is refused by name, never decoded.
	v1 := append([]byte("HLWCKPT1"), data[len(ckptMagic):]...)
	if _, err := decodeCheckpoint(v1, path); err == nil || !strings.Contains(err.Error(), "not a "+ckptMagic) {
		t.Fatalf("HLWCKPT1 image: got %v, want a format refusal", err)
	}
}

// TestRecoverMappedMatchesCopyIn is the recovery differential: the same
// data directory — checkpoint plus a live log tail from a simulated
// crash — recovered mapped and copy-in must agree on the epoch, every
// sampled distance, and the byte-exact serialised labelling.
func TestRecoverMappedMatchesCopyIn(t *testing.T) {
	if !arena.Supported() {
		t.Skip("mmap not supported")
	}
	dir := t.TempDir()
	idx := buildIndex(t, 80, 4)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()
	rng := rand.New(rand.NewSource(4))
	mirror := store.Unwrap().(*dynhl.Index).Graph().Fork()
	for i := 0; i < 6; i++ {
		if _, err := store.Apply(randomOps(rng, mirror, 3)); err != nil {
			t.Fatal(err)
		}
	}
	d.abandon() // crash: recovery must replay the tail onto the mapped boot

	dirCopy := t.TempDir()
	copyTree(t, dir, dirCopy)

	dm, err := Recover(dir, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	sc := recoverCopyIn(t, dirCopy)

	if got, want := dm.Store().Epoch(), sc.Epoch(); got != want {
		t.Fatalf("mapped recovery at epoch %d, copy-in at %d", got, want)
	}
	if mb := dm.Store().Stats().MappedBytes; mb == 0 {
		t.Fatal("mapped recovery reports MappedBytes=0")
	}
	if mb := sc.Stats().MappedBytes; mb != 0 {
		t.Fatalf("copy-in recovery reports MappedBytes=%d, want 0", mb)
	}
	n := dm.Store().NumVertices()
	for _, p := range samplePairs(n) {
		if got, want := dm.Store().Query(p.U, p.V), sc.Query(p.U, p.V); got != want {
			t.Fatalf("Query(%d,%d): mapped %d, copy-in %d", p.U, p.V, got, want)
		}
	}
	var bm, bc bytes.Buffer
	if err := dm.Store().Save(&bm); err != nil {
		t.Fatal(err)
	}
	if err := sc.Save(&bc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bm.Bytes(), bc.Bytes()) {
		t.Fatal("mapped and copy-in recoveries serialise differently")
	}
}

// TestMappedDifferentialUnderChurn drives identical op batches through a
// mapped-boot store and a copy-in store, with concurrent readers hammering
// the mapped one, and checks every epoch publishes the identical state:
// sampled distances agree and the serialised labelling is byte-identical.
// Run under -race this also exercises the mapped arena against the delta
// repack's chunk migration.
func TestMappedDifferentialUnderChurn(t *testing.T) {
	if !arena.Supported() {
		t.Skip("mmap not supported")
	}
	dir := t.TempDir()
	idx := buildIndex(t, 80, 5)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	dirCopy := t.TempDir()
	copyTree(t, dir, dirCopy)

	dm, err := Recover(dir, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	sm, sc := dm.Store(), recoverCopyIn(t, dirCopy)
	if sm.Stats().MappedBytes == 0 {
		t.Fatal("mapped store reports MappedBytes=0")
	}

	// Concurrent readers on the mapped store: every query runs against a
	// pinned snapshot while churn migrates chunks off the mapping.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := sm.Snapshot()
			n := v.NumVertices()
			for u := 0; u < n; u += 11 {
				v.Query(uint32(u), uint32((u*7+1)%n))
			}
		}
	}()

	rng := rand.New(rand.NewSource(5))
	mirror := sm.Unwrap().(*dynhl.Index).Graph().Fork()
	for i := 0; i < 10; i++ {
		ops := randomOps(rng, mirror, 3)
		if _, err := sm.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if sm.Epoch() != sc.Epoch() {
			t.Fatalf("epoch diverged: mapped %d, copy-in %d", sm.Epoch(), sc.Epoch())
		}
		n := sm.NumVertices()
		for _, p := range samplePairs(n) {
			if got, want := sm.Query(p.U, p.V), sc.Query(p.U, p.V); got != want {
				t.Fatalf("epoch %d: Query(%d,%d): mapped %d, copy-in %d", sm.Epoch(), p.U, p.V, got, want)
			}
		}
		var bm, bc bytes.Buffer
		if err := sm.Save(&bm); err != nil {
			t.Fatal(err)
		}
		if err := sc.Save(&bc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bm.Bytes(), bc.Bytes()) {
			t.Fatalf("epoch %d: serialised labellings differ", sm.Epoch())
		}
	}
	close(stop)
	<-done
}

// TestMappedViewOutlivesCheckpointPruning is the use-after-unmap guard: a
// View pinned on a mapped boot keeps answering correctly after churn and
// checkpointing have unlinked the very file it is served from — unlinking
// does not invalidate a mapping, and the snapshot chain keeps the mapping
// reachable. Once every reference is dropped, the finalizer unmaps.
func TestMappedViewOutlivesCheckpointPruning(t *testing.T) {
	if !arena.Supported() {
		t.Skip("mmap not supported")
	}
	dir := t.TempDir()
	idx := buildIndex(t, 80, 6)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	opts := quietOpts(t)
	d, err = Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()
	if store.Stats().MappedBytes == 0 {
		t.Fatal("mapped recovery reports MappedBytes=0")
	}
	bootCkpt := newestCheckpoint(t, dir)

	// Pin the boot snapshot and record its answers.
	view := store.Snapshot()
	pairs := samplePairs(view.NumVertices())
	want := view.QueryBatch(pairs)

	// Churn plus checkpoints until pruning unlinks the boot checkpoint
	// (ckptKeep newer ones supersede it).
	rng := rand.New(rand.NewSource(6))
	mirror := store.Unwrap().(*dynhl.Index).Graph().Fork()
	for i := 0; i < ckptKeep+1; i++ {
		if _, err := store.Apply(randomOps(rng, mirror, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(bootCkpt); !os.IsNotExist(err) {
		t.Fatalf("boot checkpoint %s still present after pruning (err %v)", bootCkpt, err)
	}

	// The pinned view still serves the unlinked file's pages.
	got := view.QueryBatch(pairs)
	for i := range pairs {
		if got[i] != want[i] {
			t.Fatalf("pinned view Query(%d,%d) = %d after pruning, want %d",
				pairs[i].U, pairs[i].V, got[i], want[i])
		}
	}

	// Drop every reference; the GC must eventually reclaim the mapping
	// (reachability is the refcount — see internal/arena).
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	view, store, d, mirror = nil, nil, nil, nil
	_ = view
	_ = store
	_ = d
	_ = mirror
	deadline := time.Now().Add(15 * time.Second)
	for arena.Mappings() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d mappings still live after releasing every reference", arena.Mappings())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRebuildImageMatchesCopyIn pins the follower bootstrap path:
// rebuilding a shipped image serves the labels from an unlinked temp spill
// where the host can map, and answers and serialises exactly like the
// copy-in decode of the same image.
func TestRebuildImageMatchesCopyIn(t *testing.T) {
	dir := t.TempDir()
	idx := buildIndex(t, 60, 7)
	d, err := Create(dir, idx, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	d.abandon()
	img, err := os.ReadFile(newestCheckpoint(t, dir))
	if err != nil {
		t.Fatal(err)
	}

	plain, epochP, err := copyIn(img, "checkpoint image")
	if err != nil {
		t.Fatal(err)
	}
	mapped, epochM, err := RebuildImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if epochP != epochM {
		t.Fatalf("epochs differ: %d vs %d", epochP, epochM)
	}
	if plain.Stats().MappedBytes != 0 {
		t.Fatalf("copy-in rebuild reports MappedBytes=%d", plain.Stats().MappedBytes)
	}
	if arena.Supported() {
		if mapped.Stats().MappedBytes == 0 {
			t.Fatal("rebuild on a supported platform reports MappedBytes=0")
		}
	} else if mapped.Stats().MappedBytes != 0 {
		t.Fatal("rebuild on an unsupported platform must fall back")
	}
	for _, p := range samplePairs(60) {
		if got, want := mapped.Query(p.U, p.V), plain.Query(p.U, p.V); got != want {
			t.Fatalf("Query(%d,%d): mapped %d, plain %d", p.U, p.V, got, want)
		}
	}
	var bm, bp bytes.Buffer
	if err := mapped.Save(&bm); err != nil {
		t.Fatal(err)
	}
	if err := plain.Save(&bp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bm.Bytes(), bp.Bytes()) {
		t.Fatal("mapped and copy-in rebuilds serialise differently")
	}

	// Errors still surface: a corrupted image is rejected, not mapped.
	bad := append([]byte(nil), img...)
	bad[20] ^= 0xff
	_, _, err = RebuildImage(bad)
	if err == nil {
		t.Fatal("corrupted image accepted")
	}
	if errors.Is(err, dynhl.ErrNotMappable) {
		t.Fatal("corruption must not masquerade as not-mappable")
	}
}

// recoverCopyIn is Recover with the labelling decoded onto the heap: the
// newest checkpoint in dir through copyIn, then the log tail replayed onto
// it. It is the reference a mapped recovery is compared against.
func recoverCopyIn(t *testing.T, dir string) *dynhl.Store {
	t.Helper()
	path := newestCheckpoint(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, epoch, err := copyIn(data, path)
	if err != nil {
		t.Fatal(err)
	}
	last, _, err := replay(idx, walDir(dir), epoch, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return dynhl.NewStoreAt(idx, last)
}

// TestGoldenCheckpointCopyIn loads the golden checkpoint file written by an
// earlier release (the root package's testdata, which also pins the
// writer) both ways: the copy-in decode and the load Recover takes must
// agree on the epoch, every sampled distance and the serialised labelling.
func TestGoldenCheckpointCopyIn(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "checkpoint-00000000000000000003.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plain, epochP, err := copyIn(data, path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, epochL, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if epochP != 3 || epochL != 3 {
		t.Fatalf("epochs %d (copy-in) and %d (loaded), want 3", epochP, epochL)
	}
	if arena.Supported() && loaded.Stats().MappedBytes == 0 {
		t.Fatal("golden checkpoint load on a host with mmap reports MappedBytes=0")
	}
	for _, p := range samplePairs(plain.NumVertices()) {
		if got, want := loaded.Query(p.U, p.V), plain.Query(p.U, p.V); got != want {
			t.Fatalf("Query(%d,%d): loaded %d, copy-in %d", p.U, p.V, got, want)
		}
	}
	var bl, bp bytes.Buffer
	if err := loaded.Save(&bl); err != nil {
		t.Fatal(err)
	}
	if err := plain.Save(&bp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bl.Bytes(), bp.Bytes()) {
		t.Fatal("loaded and copy-in golden checkpoints serialise differently")
	}
	if err := plain.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedCheckpointTriedOnce corrupts the newest checkpoint and checks
// that recovery reports it once, as skipped, and boots from the older
// one: a damaged image is not decoded a second time by the other load.
func TestDamagedCheckpointTriedOnce(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, buildIndex(t, 40, 8), quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	insertFresh(t, d.Store())
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.abandon()
	path := newestCheckpoint(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	var lines []string
	r, err := Recover(dir, Options{Logf: func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, path) {
			lines = append(lines, line)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(lines) != 1 || !strings.Contains(lines[0], "skipping damaged checkpoint") {
		t.Fatalf("recovery logged %q about the damaged checkpoint, want one skip", lines)
	}
	if err := r.Store().Verify(); err != nil {
		t.Fatal(err)
	}
}
