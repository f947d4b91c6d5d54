package dynhl_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	dynhl "repro"
	"repro/internal/gen"
	"repro/internal/testutil"
	"repro/internal/wal"
)

// benchEdge returns the first vertex pair, in lexical order, that is not
// an edge of idx's graph.
func benchEdge(b *testing.B, idx *dynhl.Index) (uint32, uint32) {
	b.Helper()
	g := idx.Graph()
	n := uint32(g.NumVertices())
	for u := uint32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	b.Fatal("graph is complete")
	return 0, 0
}

// BenchmarkApplyDurable measures the single-op publish path with the
// write-ahead log attached, one sub-benchmark per fsync policy, against the
// plain in-memory store — the durability latency trade-off: fsync=always
// pays one fsync per publish, fsync=interval amortises it, fsync=off rides
// the page cache. Each iteration alternately inserts and deletes one edge
// of a 5,000-vertex random graph, so every iteration publishes one epoch
// and the graph ends where it started.
//
// On that graph a repair is far cheaper than an fsync, so the overlap of
// the two barely shows. fsync-always/churn is the write the churn-delete
// benchmark workload sends instead: each iteration is one batch deleting a
// uniformly random edge of a Barabási–Albert graph (50k vertices, m = 8,
// 20 landmarks) and inserting a uniformly random non-edge, whose DecHL
// repair and pack are of the order of the fsync they run beside.
func BenchmarkApplyDurable(b *testing.B) {
	for _, tc := range []struct {
		name    string
		durable bool
		policy  wal.Policy
	}{
		{"store-only", false, 0},
		{"fsync-always", true, wal.SyncAlways},
		{"fsync-interval", true, wal.SyncInterval},
		{"fsync-off", true, wal.SyncOff},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := testutil.RandomConnectedGraph(5000, 15000, 7)
			idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 16})
			if err != nil {
				b.Fatal(err)
			}
			var store *dynhl.Store
			if tc.durable {
				d, err := wal.Create(b.TempDir(), idx, wal.Options{Fsync: tc.policy, Logf: b.Logf})
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				store = d.Store()
			} else {
				store = dynhl.NewStore(idx)
			}
			u, v := benchEdge(b, idx)
			ins := []dynhl.Op{dynhl.InsertEdgeOp(u, v, 0)}
			del := []dynhl.Op{dynhl.DeleteEdgeOp(u, v)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops := ins
				if i%2 == 1 {
					ops = del
				}
				if _, err := store.Apply(ops); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N%2 == 1 { // leave the graph as found for the deferred Close
				if _, err := store.Apply(del); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fsync-always/churn", benchApplyChurn)
}

func benchApplyChurn(b *testing.B) {
	g := gen.BarabasiAlbert(50_000, 8, 9)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 20})
	if err != nil {
		b.Fatal(err)
	}
	var edges [][2]uint32
	g.Edges(func(u, v uint32) { edges = append(edges, [2]uint32{u, v}) })
	d, err := wal.Create(b.TempDir(), idx, wal.Options{Fsync: wal.SyncAlways, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	store := d.Store()
	rng := rand.New(rand.NewSource(33))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := store.Unwrap().(*dynhl.Index).Graph()
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		for u == v || cur.HasEdge(u, v) {
			u, v = uint32(rng.Intn(n)), uint32(rng.Intn(n))
		}
		j := rng.Intn(len(edges))
		ops := []dynhl.Op{dynhl.DeleteEdgeOp(edges[j][0], edges[j][1]), dynhl.InsertEdgeOp(u, v, 0)}
		if _, err := store.Apply(ops); err != nil {
			b.Fatal(err)
		}
		edges[j] = [2]uint32{u, v}
	}
	b.StopTimer()
}

// BenchmarkRecoverVsRebuild is the subsystem's reason to exist: restoring a
// serving node from checkpoint plus log tail versus reconstructing the
// labelling from the raw graph — the full-construction cost the paper's
// incremental maintenance is designed to avoid.
func BenchmarkRecoverVsRebuild(b *testing.B) {
	const (
		vertices  = 50000
		extra     = 150000
		landmarks = 16
		tail      = 20 // log records left unreplayed, as after a crash
	)
	g := testutil.RandomConnectedGraph(vertices, extra, 11)
	final := g.Clone()
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: landmarks})
	if err != nil {
		b.Fatal(err)
	}

	// A durable directory with a crash-shaped state: base checkpoint plus a
	// tail of logged batches nothing checkpointed. The Durable stays open
	// (as a crashed process's files would) and every recovery works on a
	// private copy.
	fixture := b.TempDir()
	d, err := wal.Create(fixture, idx, wal.Options{Fsync: wal.SyncAlways, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	store := d.Store()
	for i := 0; i < tail; i++ {
		// The store forks per publish, so re-resolve the current snapshot's
		// index to find an edge that is still missing.
		u, v := benchEdge(b, store.Unwrap().(*dynhl.Index))
		if _, err := store.Apply([]dynhl.Op{dynhl.InsertEdgeOp(u, v, 0)}); err != nil {
			b.Fatal(err)
		}
		final.MustAddEdge(u, v)
	}

	// A second fixture shut down gracefully: its final checkpoint makes the
	// log tail empty, the common restart case.
	clean := b.TempDir()
	copyDir(b, fixture, clean)
	dc, err := wal.Recover(clean, wal.Options{Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("recover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			copyDir(b, fixture, dir)
			b.StartTimer()
			r, err := wal.Recover(dir, wal.Options{Logf: b.Logf})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if r.Epoch() != uint64(tail) || r.Replayed() != tail {
				b.Fatalf("recovered epoch %d (replayed %d), want %d", r.Epoch(), r.Replayed(), tail)
			}
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("recover-clean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			copyDir(b, clean, dir)
			b.StartTimer()
			r, err := wal.Recover(dir, wal.Options{Logf: b.Logf})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if r.Epoch() != uint64(tail) || r.Replayed() != 0 {
				b.Fatalf("recovered epoch %d (replayed %d), want %d replaying nothing", r.Epoch(), r.Replayed(), tail)
			}
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			work := final.Clone()
			b.StartTimer()
			if _, err := dynhl.Build(work, dynhl.Options{Landmarks: landmarks}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// copyDir copies the fixture state so a recovery can own (and truncate) it.
func copyDir(b *testing.B, src, dst string) {
	b.Helper()
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
		b.Fatal(err)
	}
}
