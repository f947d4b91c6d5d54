package repl

import (
	"bytes"
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	dynhl "repro"
	"repro/internal/bfs"
	"repro/internal/wal"
)

// testOpts keeps reconnects fast and routes log noise through the test.
func testOpts(t testing.TB) Options {
	t.Helper()
	return Options{
		Heartbeat:    20 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
		Logf:         t.Logf,
	}
}

// buildIndex returns a small random connected oracle.
func buildIndex(t testing.TB, n int, seed int64) (*dynhl.Index, *dynhl.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := dynhl.NewGraph(n)
	g.EnsureVertex(uint32(n - 1))
	mirror := dynhl.NewGraph(n)
	mirror.EnsureVertex(uint32(n - 1))
	for v := 1; v < n; v++ {
		u := uint32(rng.Intn(v))
		g.MustAddEdge(uint32(v), u)
		mirror.MustAddEdge(uint32(v), u)
	}
	for i := 0; i < n; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
			mirror.MustAddEdge(u, v)
		}
	}
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return idx, mirror
}

// randomOps returns a batch of valid mutations against mirror, applying
// them to mirror as it goes so later ops stay valid.
func randomOps(rng *rand.Rand, mirror *dynhl.Graph, k int) []dynhl.Op {
	var ops []dynhl.Op
	for len(ops) < k {
		n := mirror.NumVertices()
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		switch rng.Intn(4) {
		case 0, 1:
			if u != v && !mirror.HasEdge(u, v) {
				mirror.MustAddEdge(u, v)
				ops = append(ops, dynhl.InsertEdgeOp(u, v, 0))
			}
		case 2:
			if u != v && mirror.HasEdge(u, v) && mirror.Degree(u) > 1 && mirror.Degree(v) > 1 {
				if err := mirror.RemoveEdge(u, v); err == nil {
					ops = append(ops, dynhl.DeleteEdgeOp(u, v))
				}
			}
		case 3:
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

// startLeader builds a durable leader over a fresh oracle and serves
// replication on a loopback port.
func startLeader(t testing.TB, n int, seed int64) (*Leader, *wal.Durable, *dynhl.Graph) {
	t.Helper()
	idx, mirror := buildIndex(t, n, seed)
	d, err := wal.Create(t.TempDir(), idx, wal.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	l, err := StartLeader("127.0.0.1:0", d, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, d, mirror
}

// startFollower connects a follower and waits for its bootstrap.
func startFollower(t testing.TB, l *Leader) *Follower {
	t.Helper()
	return startFollowerWith(t, l, testOpts(t))
}

// startFollowerWith is startFollower with the follower's options given.
func startFollowerWith(t testing.TB, l *Leader, opts Options) *Follower {
	t.Helper()
	f := StartFollower(l.Addr(), opts)
	t.Cleanup(func() { f.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return f
}

// converge waits until the follower has applied epoch.
func converge(t testing.TB, f *Follower, epoch uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Store().WaitEpoch(ctx, epoch); err != nil {
		t.Fatalf("follower stuck at epoch %d waiting for %d: %v", f.Store().Epoch(), epoch, err)
	}
}

// assertIdentical checks the follower snapshot is byte-identical to the
// leader's at the same epoch and answers random queries identically.
func assertIdentical(t *testing.T, leader, follower *dynhl.Store, rng *rand.Rand) {
	t.Helper()
	if le, fe := leader.Epoch(), follower.Epoch(); le != fe {
		t.Fatalf("epoch mismatch: leader %d, follower %d", le, fe)
	}
	var lb, fb bytes.Buffer
	if err := leader.Save(&lb); err != nil {
		t.Fatal(err)
	}
	if err := follower.Save(&fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb.Bytes(), fb.Bytes()) {
		t.Fatalf("epoch %d: follower labelling differs from leader (%d vs %d bytes)", leader.Epoch(), fb.Len(), lb.Len())
	}
	n := leader.NumVertices()
	for i := 0; i < 64; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if got, want := follower.Query(u, v), leader.Query(u, v); got != want {
			t.Fatalf("epoch %d: dist(%d,%d) = %v on follower, %v on leader", leader.Epoch(), u, v, got, want)
		}
	}
}

func TestBootstrapAndStream(t *testing.T) {
	l, d, mirror := startLeader(t, 32, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		if _, err := d.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
			t.Fatal(err)
		}
	}
	f := startFollower(t, l)
	converge(t, f, d.Epoch())
	assertIdentical(t, d.Store(), f.Store(), rng)

	// Live streaming after the bootstrap.
	for i := 0; i < 5; i++ {
		if _, err := d.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
			t.Fatal(err)
		}
	}
	converge(t, f, d.Epoch())
	assertIdentical(t, d.Store(), f.Store(), rng)

	rs := f.ReplicationStats()
	if rs.Role != "follower" || !rs.Ready || rs.Leader != l.Addr() {
		t.Fatalf("follower stats %+v", rs)
	}
	ls := d.Store().Stats()
	if ls.Replication == nil || ls.Replication.Role != "leader" || ls.Replication.Followers != 1 {
		t.Fatalf("leader stats replication %+v", ls.Replication)
	}
}

func TestReconnectResume(t *testing.T) {
	l, d, mirror := startLeader(t, 32, 2)
	rng := rand.New(rand.NewSource(2))
	f := startFollower(t, l)
	converge(t, f, d.Epoch())

	f.bounce()
	for i := 0; i < 4; i++ {
		if _, err := d.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
			t.Fatal(err)
		}
	}
	converge(t, f, d.Epoch())
	assertIdentical(t, d.Store(), f.Store(), rng)
	if got := l.resumes.Load(); got == 0 {
		t.Fatal("reconnect did not resume from the follower's epoch")
	}
}

func TestTruncatedResumeRebootstraps(t *testing.T) {
	l, d, mirror := startLeader(t, 32, 3)
	rng := rand.New(rand.NewSource(3))
	// The follower must stay down until the checkpoint below has moved the
	// resume floor: a reconnect that beats it, as a 10 ms backoff can on a
	// loaded host, resumes instead of re-bootstrapping.
	opts := testOpts(t)
	opts.ReconnectMin = time.Second
	f := startFollowerWith(t, l, opts)
	converge(t, f, d.Epoch())
	waitCount(t, &l.bootstraps, 1) // the initial image
	before := l.bootstraps.Load()

	// While the follower is down, the leader checkpoints past its epoch:
	// the resume floor moves and the reconnect must ship a fresh image.
	f.bounce()
	for i := 0; i < 4; i++ {
		if _, err := d.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	converge(t, f, d.Epoch())
	assertIdentical(t, d.Store(), f.Store(), rng)
	waitCount(t, &l.bootstraps, before+1) // a checkpoint past the follower's epoch forces a re-bootstrap
}

// waitCount waits for a leader counter to reach want. The leader counts a
// frame after writing it, so a follower can apply the frame before the
// count moves.
func waitCount(t *testing.T, c *atomic.Uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("leader counter at %d, want %d", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLoadEpochShipsFreshSnapshot(t *testing.T) {
	l, d, mirror := startLeader(t, 32, 4)
	rng := rand.New(rand.NewSource(4))
	f := startFollower(t, l)
	if _, err := d.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
		t.Fatal(err)
	}
	converge(t, f, d.Epoch())

	// A Load publish has no op record; the follower must still reach its
	// epoch, via the snapshot the leader ships instead.
	var saved bytes.Buffer
	if err := d.Store().Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Load(&saved); err != nil {
		t.Fatal(err)
	}
	converge(t, f, d.Epoch())
	assertIdentical(t, d.Store(), f.Store(), rng)

	// And the stream keeps going afterwards.
	if _, err := d.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
		t.Fatal(err)
	}
	converge(t, f, d.Epoch())
	assertIdentical(t, d.Store(), f.Store(), rng)
}

// TestReplicationDifferential is the acceptance differential: random
// batches on the leader with periodic checkpoints and forced follower
// reconnects, asserting after every round that the follower's Save output
// is byte-identical to the leader's at the shared epoch and that both
// agree with BFS ground truth on the mirror graph.
func TestReplicationDifferential(t *testing.T) {
	l, d, mirror := startLeader(t, 48, 5)
	rng := rand.New(rand.NewSource(5))
	f := startFollower(t, l)

	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		if _, err := d.Store().Apply(randomOps(rng, mirror, 1+rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
		switch round % 7 {
		case 3:
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case 5:
			f.bounce()
		}
		converge(t, f, d.Epoch())
		assertIdentical(t, d.Store(), f.Store(), rng)
		// Spot-check against ground truth so "identical" is also "right".
		u, v := uint32(rng.Intn(mirror.NumVertices())), uint32(rng.Intn(mirror.NumVertices()))
		if got, want := f.Store().Query(u, v), bfs.Dist(mirror, u, v); got != want {
			t.Fatalf("round %d: dist(%d,%d) = %v, BFS says %v", round, u, v, got, want)
		}
	}
	rs := f.ReplicationStats()
	if rs.LagEpochs != 0 {
		t.Fatalf("converged follower reports lag %d", rs.LagEpochs)
	}
}

func TestTwoFollowersAndLeaderStats(t *testing.T) {
	l, d, mirror := startLeader(t, 32, 6)
	rng := rand.New(rand.NewSource(6))
	f1 := startFollower(t, l)
	f2 := startFollower(t, l)
	for i := 0; i < 4; i++ {
		if _, err := d.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
			t.Fatal(err)
		}
	}
	converge(t, f1, d.Epoch())
	converge(t, f2, d.Epoch())
	assertIdentical(t, d.Store(), f1.Store(), rng)
	assertIdentical(t, d.Store(), f2.Store(), rng)

	rs := l.ReplicationStats()
	if rs.Followers != 2 {
		t.Fatalf("leader sees %d followers, want 2", rs.Followers)
	}
	// Acks are async; the slowest-follower lag must drain to zero.
	deadline := time.Now().Add(5 * time.Second)
	for l.ReplicationStats().LagEpochs != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leader lag stuck at %d", l.ReplicationStats().LagEpochs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFollowerSurvivesLeaderRestart(t *testing.T) {
	idx, mirror := buildIndex(t, 32, 7)
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	d, err := wal.Create(dir, idx, wal.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartLeader("127.0.0.1:0", d, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	f := StartFollower(addr, testOpts(t))
	t.Cleanup(func() { f.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
		t.Fatal(err)
	}
	converge(t, f, d.Epoch())

	// Leader goes away and comes back on the same address with the same
	// durable state; the follower reconnects and picks the stream back up.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := wal.Recover(dir, wal.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	l2, err := StartLeader(addr, d2, testOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l2.Close() })
	for i := 0; i < 3; i++ {
		if _, err := d2.Store().Apply(randomOps(rng, mirror, 2)); err != nil {
			t.Fatal(err)
		}
	}
	converge(t, f, d2.Epoch())
	assertIdentical(t, d2.Store(), f.Store(), rng)
}

// TestFollowerCloseDoesNotHang starts followers and closes them after a
// varying short delay, so Close lands before, during and after the first
// session dials its leader. Close must return every time: a Close that
// ran between the dial and the session registering its connection used
// to leave the session reading heartbeats forever.
func TestFollowerCloseDoesNotHang(t *testing.T) {
	l, _, _ := startLeader(t, 40, 5)
	for i := 0; i < 200; i++ {
		f := StartFollower(l.Addr(), testOpts(t))
		time.Sleep(time.Duration(i%25) * 20 * time.Microsecond)
		f.bounce()
		closed := make(chan struct{})
		go func() {
			f.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Follower.Close did not return", i)
		}
	}
}
