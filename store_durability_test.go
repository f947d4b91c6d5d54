package dynhl_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	dynhl "repro"
	"repro/internal/testutil"
)

// fakeDurability records appends and can refuse them — exercising the
// Store side of the durability contract without a real WAL.
type fakeDurability struct {
	commits atomic.Uint64
	fail    atomic.Bool
	last    atomic.Uint64
}

var errFakeDisk = errors.New("disk unplugged")

func (f *fakeDurability) Append(epoch uint64, ops []dynhl.Op) error {
	if f.fail.Load() {
		return errFakeDisk
	}
	if len(ops) == 0 {
		return errors.New("append of an empty batch")
	}
	f.commits.Add(1)
	f.last.Store(epoch)
	return nil
}

func (f *fakeDurability) Capture(next dynhl.View) error {
	if f.fail.Load() {
		return errFakeDisk
	}
	f.commits.Add(1)
	f.last.Store(next.Epoch())
	return nil
}

func (f *fakeDurability) DurabilityStats() dynhl.DurabilityStats {
	return dynhl.DurabilityStats{Records: f.commits.Load(), DurableEpoch: f.last.Load()}
}

func durabilityFixture(t *testing.T) (*dynhl.Store, *fakeDurability) {
	t.Helper()
	g := testutil.RandomConnectedGraph(30, 50, 9)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	store := dynhl.NewStore(idx)
	fake := &fakeDurability{}
	if err := store.AttachDurability(fake); err != nil {
		t.Fatal(err)
	}
	return store, fake
}

// missingEdge returns an edge the store's current snapshot does not have.
func missingEdge(t *testing.T, store *dynhl.Store) (uint32, uint32) {
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

// TestCommitHookGatesPublish checks the contract at the heart of the WAL:
// the append completes before the epoch is visible, its refusal aborts the
// publish (epoch unchanged, labelling untouched), and a second layer cannot
// attach.
func TestCommitHookGatesPublish(t *testing.T) {
	store, fake := durabilityFixture(t)
	u, v := missingEdge(t, store)
	if _, err := store.Apply([]dynhl.Op{dynhl.InsertEdgeOp(u, v, 0)}); err != nil {
		t.Fatal(err)
	}
	if got := fake.commits.Load(); got != 1 {
		t.Fatalf("%d commits after one publish, want 1", got)
	}
	if got := fake.last.Load(); got != 1 {
		t.Fatalf("commit saw epoch %d, want 1", got)
	}

	fake.fail.Store(true)
	u2, v2 := missingEdge(t, store)
	_, err := store.Apply([]dynhl.Op{dynhl.InsertEdgeOp(u2, v2, 0)})
	if !errors.Is(err, errFakeDisk) {
		t.Fatalf("got %v, want the commit failure", err)
	}
	if got := store.Epoch(); got != 1 {
		t.Fatalf("failed commit advanced the epoch to %d", got)
	}
	if store.Query(u2, v2) == 1 {
		t.Fatal("aborted publish is visible to readers")
	}

	if err := store.AttachDurability(&fakeDurability{}); err == nil ||
		!strings.Contains(err.Error(), "already") {
		t.Fatalf("second AttachDurability: got %v, want already-attached error", err)
	}
}

// TestStatsCarriesEpochAndDurability checks Store.Stats and View.Stats are
// stamped with the epoch, and the attached layer's counters ride along.
func TestStatsCarriesEpochAndDurability(t *testing.T) {
	store, _ := durabilityFixture(t)
	u, v := missingEdge(t, store)
	if _, err := store.Apply([]dynhl.Op{dynhl.InsertEdgeOp(u, v, 0)}); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Epoch != 1 {
		t.Fatalf("Store.Stats epoch %d, want 1", st.Epoch)
	}
	if st.Durability == nil || st.Durability.Records != 1 || st.Durability.DurableEpoch != 1 {
		t.Fatalf("Store.Stats durability %+v, want the attached layer's counters", st.Durability)
	}
	if vs := store.Snapshot().Stats(); vs.Epoch != 1 {
		t.Fatalf("View.Stats epoch %d, want 1", vs.Epoch)
	}

	// A store without a layer reports no durability block.
	plain := dynhl.NewStore(store.Unwrap().(*dynhl.Index))
	if st := plain.Stats(); st.Durability != nil {
		t.Fatal("plain store reports durability stats")
	}
}

// TestNewStoreAt checks persisted-state restoration: the store publishes at
// the given epoch and counts on from it, and wrapping an existing store is
// refused.
func TestNewStoreAt(t *testing.T) {
	g := testutil.RandomConnectedGraph(30, 50, 10)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	store := dynhl.NewStoreAt(idx, 41)
	if got := store.Epoch(); got != 41 {
		t.Fatalf("epoch %d, want 41", got)
	}
	u, v := missingEdge(t, store)
	if res, err := store.ApplyCtx(context.Background(), []dynhl.Op{dynhl.InsertEdgeOp(u, v, 0)}); err != nil || res.Epoch != 42 {
		t.Fatalf("published epoch %d (err %v), want 42", res.Epoch, err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewStoreAt accepted an existing store")
		}
	}()
	dynhl.NewStoreAt(store, 7)
}

// gatedDurability is a Durability whose appends block until the test
// releases them: each Append reports itself on started, then returns what
// the test sends on release.
type gatedDurability struct {
	started chan gatedAppend
	release chan error
}

type gatedAppend struct {
	epoch uint64
	ops   []dynhl.Op
}

func newGatedDurability() *gatedDurability {
	return &gatedDurability{started: make(chan gatedAppend), release: make(chan error)}
}

func (f *gatedDurability) Append(epoch uint64, ops []dynhl.Op) error {
	f.started <- gatedAppend{epoch: epoch, ops: ops}
	return <-f.release
}

func (f *gatedDurability) Capture(dynhl.View) error { return errors.New("unexpected Capture") }

func (f *gatedDurability) DurabilityStats() dynhl.DurabilityStats { return dynhl.DurabilityStats{} }

// waitPacked waits until the store's pipeline has repaired and packed n
// groups in total.
func waitPacked(t *testing.T, store *dynhl.Store, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for dynhl.PackedGroups(store) < n {
		if time.Now().After(deadline) {
			t.Fatalf("the pipeline packed %d groups, want %d", dynhl.PackedGroups(store), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// applyAsync runs store.Apply(ops) on its own goroutine; the channel
// receives the result.
func applyAsync(store *dynhl.Store, ops ...dynhl.Op) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := store.Apply(ops)
		done <- err
	}()
	return done
}

// applyQueued is applyAsync that returns once the batch is on the apply
// queue.
func applyQueued(store *dynhl.Store, ops ...dynhl.Op) <-chan error {
	ctx, queued := testutil.QueuedContext()
	done := make(chan error, 1)
	go func() {
		_, err := store.ApplyCtx(ctx, ops)
		done <- err
	}()
	<-queued
	return done
}

// TestAppendOverlapsRepair checks that a group's WAL append runs alongside
// its repair: the group is repaired and packed while its append is still
// blocked, yet the epoch stays invisible until the append returns, and a
// failed append discards the repaired fork.
func TestAppendOverlapsRepair(t *testing.T) {
	g := testutil.RandomConnectedGraph(30, 50, 9)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	store := dynhl.NewStore(idx)
	gate := newGatedDurability()
	if err := store.AttachDurability(gate); err != nil {
		t.Fatal(err)
	}
	u, v := missingEdge(t, store)
	ins := dynhl.InsertEdgeOp(u, v, 0)

	for round, outcome := range []error{errFakeDisk, nil} {
		done := applyAsync(store, ins)
		if a := <-gate.started; a.epoch != 1 || !reflect.DeepEqual(a.ops, []dynhl.Op{ins}) {
			t.Fatalf("round %d: append of epoch %d ops %v, want epoch 1 and the insert", round, a.epoch, a.ops)
		}
		waitPacked(t, store, uint64(round+1))
		if store.Epoch() != 0 || store.Query(u, v) == 1 {
			t.Fatalf("round %d: the epoch is visible before its append returned", round)
		}
		select {
		case err := <-done:
			t.Fatalf("round %d: Apply returned (%v) before its append did", round, err)
		default:
		}
		gate.release <- outcome
		err := <-done
		if outcome != nil {
			// The repaired fork is discarded: the same insert is valid again
			// in the next round, against the unchanged snapshot.
			if !errors.Is(err, errFakeDisk) {
				t.Fatalf("got %v, want the append failure", err)
			}
			if store.Epoch() != 0 || store.Query(u, v) == 1 {
				t.Fatal("a failed append published its group")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if store.Epoch() != 1 || store.Query(u, v) != 1 {
			t.Fatalf("epoch %d, d(%d,%d)=%d after the append returned", store.Epoch(), u, v, store.Query(u, v))
		}
	}
}

// TestSuccessorSkipsFailedAppend checks the append order: callers that
// queue while a group's append is in flight are validated and appended
// only once it returned, and when it failed, against the state without it
// — where the edge the failed group inserted does not exist — as the same
// epoch. Nothing built on the failed group is ever appended.
func TestSuccessorSkipsFailedAppend(t *testing.T) {
	g := testutil.RandomConnectedGraph(30, 50, 9)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	store := dynhl.NewStore(idx)
	gate := newGatedDurability()
	if err := store.AttachDurability(gate); err != nil {
		t.Fatal(err)
	}
	fresh := testutil.NonEdges(g, 2, 3)
	insA := dynhl.InsertEdgeOp(fresh[0][0], fresh[0][1], 0)
	insB := dynhl.InsertEdgeOp(fresh[1][0], fresh[1][1], 0)
	delA := dynhl.DeleteEdgeOp(fresh[0][0], fresh[0][1])

	doneA := applyAsync(store, insA)
	if a := <-gate.started; a.epoch != 1 || !reflect.DeepEqual(a.ops, []dynhl.Op{insA}) {
		t.Fatalf("first append: epoch %d ops %v", a.epoch, a.ops)
	}
	// B, then C (which deletes A's edge), queue behind A's blocked append.
	doneB := applyQueued(store, insB)
	doneC := applyQueued(store, delA)
	gate.release <- errFakeDisk
	if err := <-doneA; !errors.Is(err, errFakeDisk) {
		t.Fatalf("A: got %v, want the append failure", err)
	}

	// The only append still to come is B's, as epoch 1; C's delete of A's
	// edge is rejected.
	a := <-gate.started
	if a.epoch != 1 || !reflect.DeepEqual(a.ops, []dynhl.Op{insB}) {
		t.Fatalf("next append: epoch %d ops %v, want epoch 1 with B's insert alone", a.epoch, a.ops)
	}
	gate.release <- nil
	if err := <-doneB; err != nil {
		t.Fatalf("B: %v", err)
	}
	if err := <-doneC; !errors.Is(err, dynhl.ErrNoSuchEdge) {
		t.Fatalf("C: got %v, want ErrNoSuchEdge", err)
	}
	select {
	case a := <-gate.started:
		t.Fatalf("unexpected append of epoch %d ops %v", a.epoch, a.ops)
	default:
	}
	if store.Epoch() != 1 || store.Query(fresh[1][0], fresh[1][1]) != 1 || store.Query(fresh[0][0], fresh[0][1]) == 1 {
		t.Fatal("published state is not B's insert alone")
	}
}
