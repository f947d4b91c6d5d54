package wal

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	dynhl "repro"
	"repro/internal/testutil"
)

// TestGroupRecordHoldsLiveCallers coalesces three callers into one group,
// the middle one invalid, and checks the WAL: the group's single record
// holds exactly the live callers' ops in arrival order, and replaying the
// directory reproduces the published labelling byte for byte.
func TestGroupRecordHoldsLiveCallers(t *testing.T) {
	idx := buildIndex(t, 40, 5)
	fresh := testutil.NonEdges(idx.Graph(), 4, 5)
	held, release := make(chan struct{}), make(chan struct{})
	logf := func(format string, args ...any) {
		if strings.Contains(format, "published without ops") {
			close(held)
			<-release
		}
	}
	dir := t.TempDir()
	d, err := Create(dir, idx, Options{Fsync: SyncAlways, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	store := d.Store()

	// A Load of the store's own labelling stalls in its capture while
	// holding the writer lock, so the callers below queue up behind it, in
	// order, and are claimed as one group.
	var labels bytes.Buffer
	if err := store.Save(&labels); err != nil {
		t.Fatal(err)
	}
	loaded := make(chan error, 1)
	go func() { loaded <- store.Load(&labels) }()
	<-held

	callers := [][]dynhl.Op{
		{dynhl.InsertEdgeOp(fresh[0][0], fresh[0][1], 0), dynhl.InsertEdgeOp(fresh[1][0], fresh[1][1], 0)},
		// Rejected at op 1: that edge never exists. Op 0 must not leak.
		{dynhl.InsertEdgeOp(fresh[2][0], fresh[2][1], 0), dynhl.DeleteEdgeOp(fresh[3][0], fresh[3][1])},
		// Valid only after the first caller's ops.
		{dynhl.DeleteEdgeOp(fresh[0][0], fresh[0][1]), dynhl.InsertVertexOp(dynhl.Arcs(fresh[1][0], fresh[1][1])...)},
	}
	type outcome struct {
		res dynhl.ApplyResult
		err error
	}
	outs := make([]chan outcome, len(callers))
	for i, ops := range callers {
		outs[i] = make(chan outcome, 1)
		ctx, queued := testutil.QueuedContext()
		go func() {
			res, err := store.ApplyCtx(ctx, ops)
			outs[i] <- outcome{res, err}
		}()
		<-queued
	}
	close(release)
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}

	a, b, c := <-outs[0], <-outs[1], <-outs[2]
	if a.err != nil || c.err != nil {
		t.Fatalf("live callers failed: %v, %v", a.err, c.err)
	}
	if a.res.Epoch != 2 || c.res.Epoch != 2 || !a.res.Coalesced || !c.res.Coalesced {
		t.Fatalf("live callers published as epochs %d and %d (coalesced %v, %v), want one shared epoch 2",
			a.res.Epoch, c.res.Epoch, a.res.Coalesced, c.res.Coalesced)
	}
	var oe *dynhl.OpError
	if !errors.As(b.err, &oe) || oe.Index != 1 || !errors.Is(b.err, dynhl.ErrNoSuchEdge) {
		t.Fatalf("rejected caller: got %v, want OpError at op 1 wrapping ErrNoSuchEdge", b.err)
	}
	if store.Query(fresh[2][0], fresh[2][1]) == 1 {
		t.Fatal("the rejected caller's first op leaked")
	}

	tr, err := d.TailFrom(2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tr.Next()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dynhl.AppendOps(nil, append(append([]dynhl.Op(nil), callers[0]...), callers[2]...))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dynhl.AppendOps(nil, rec.Ops)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 2 || !bytes.Equal(got, want) {
		t.Fatalf("record for epoch %d holds %v, want epoch 2 with the live callers' ops in order", rec.Epoch, rec.Ops)
	}
	if rec, err := tr.Next(); err != io.EOF {
		t.Fatalf("a second record (epoch %d, err %v) follows the group's", rec.Epoch, err)
	}

	// Crash and replay the directory: the group's record over the Load's
	// checkpoint must rebuild exactly what was published.
	var wantLabels bytes.Buffer
	if err := store.Save(&wantLabels); err != nil {
		t.Fatal(err)
	}
	d.abandon()
	r, err := Recover(dir, quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Replayed() != 1 || r.Epoch() != 2 {
		t.Fatalf("recovery replayed %d records to epoch %d, want 1 record to epoch 2", r.Replayed(), r.Epoch())
	}
	var gotLabels bytes.Buffer
	if err := r.Store().Save(&gotLabels); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLabels.Bytes(), wantLabels.Bytes()) {
		t.Fatal("replayed labelling differs from the published Save output")
	}
}
