package dynhl_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	dynhl "repro"
	"repro/internal/testutil"
)

// fakeDurability records Commit calls and can refuse them — exercising the
// Store side of the durability contract without a real WAL.
type fakeDurability struct {
	commits atomic.Uint64
	fail    atomic.Bool
	last    atomic.Uint64
}

var errFakeDisk = errors.New("disk unplugged")

func (f *fakeDurability) Commit(epoch uint64, ops []dynhl.Op, next dynhl.View) error {
	if f.fail.Load() {
		return errFakeDisk
	}
	if next.Epoch() != epoch {
		return errors.New("view epoch does not match commit epoch")
	}
	f.commits.Add(1)
	f.last.Store(epoch)
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
// the hook runs before the epoch is visible, its refusal aborts the publish
// (epoch unchanged, labelling untouched), and a second layer cannot attach.
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
