// Benchmarks for the packed label store: queries on a Store's published
// snapshot, the per-epoch cost of a write (fork, repair and its chunk
// writes, publish), and loading a saved labelling.
package dynhl_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	dynhl "repro"
	"repro/internal/gen"
	"repro/internal/testutil"
)

const (
	packedBenchN     = 50_000
	packedBenchEdges = 100_000
	packedBenchLand  = 20
)

// packedBenchSetup builds an oracle over a 50k-vertex graph, wraps it in
// a Store and returns its published snapshot and 4,096 random pairs.
func packedBenchSetup(b *testing.B) (dynhl.View, []dynhl.Pair) {
	b.Helper()
	g := testutil.RandomConnectedGraph(packedBenchN, packedBenchEdges, 9)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: packedBenchLand})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	pairs := make([]dynhl.Pair, 4096)
	for i := range pairs {
		pairs[i] = dynhl.Pair{U: uint32(rng.Intn(packedBenchN)), V: uint32(rng.Intn(packedBenchN))}
	}
	return dynhl.NewStore(idx).Snapshot(), pairs
}

// BenchmarkQuery measures one exact distance query on a published
// snapshot: two contiguous entry spans and the bounded search. It must run
// allocation-free in steady state.
func BenchmarkQuery(b *testing.B) {
	view, pairs := packedBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		view.Query(p.U, p.V)
	}
}

// queryFixture is a Store's published snapshot and 4,096 uniform random
// pairs over its vertices, every pair already queried once.
type queryFixture struct {
	view  dynhl.View
	pairs []dynhl.Pair
}

func newQueryFixture(o dynhl.Oracle) queryFixture {
	view := dynhl.NewStore(o).Snapshot()
	n := view.NumVertices()
	rng := rand.New(rand.NewSource(77))
	pairs := make([]dynhl.Pair, 4096)
	for i := range pairs {
		pairs[i] = dynhl.Pair{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
		view.Query(pairs[i].U, pairs[i].V)
	}
	return queryFixture{view, pairs}
}

// run times one view.Query per iteration, cycling through the pairs, and
// fails unless it reports 0 allocs/op. The pairs the round will time are
// queried first, so the pooled scratch it times has grown as large as
// those pairs need.
func (f queryFixture) run(b *testing.B) {
	for _, p := range f.pairs[:min(b.N, len(f.pairs))] {
		f.view.Query(p.U, p.V)
	}
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.pairs[i%len(f.pairs)]
		f.view.Query(p.U, p.V)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if a := (after.Mallocs - before.Mallocs) / uint64(b.N); a != 0 {
		b.Fatalf("%d allocs/op, want 0", a)
	}
}

// socialQueries is the social-read shape: a Barabási–Albert graph of
// 200,000 vertices with m = 8 and 20 landmarks. It is built and warmed
// once per test binary.
var socialQueries = sync.OnceValues(func() (queryFixture, error) {
	idx, err := dynhl.Build(gen.BarabasiAlbert(200_000, 8, 11), dynhl.Options{Landmarks: 20})
	if err != nil {
		return queryFixture{}, err
	}
	return newQueryFixture(idx), nil
})

// BenchmarkQuerySocial measures one query on a Store's published snapshot
// over uniform random pairs of the social-read shape. On this graph the
// Eq. 2 bound is exact for most pairs and the bounded search's levels are
// wide, which BenchmarkQuery's sparse random graph does not show.
func BenchmarkQuerySocial(b *testing.B) {
	f, err := socialQueries()
	if err != nil {
		b.Fatal(err)
	}
	f.run(b)
}

// coldSweepBytes is the buffer BenchmarkQuerySocialCold reads between
// queries to evict what the previous query left in the caches.
const coldSweepBytes = 8 << 20

// coldSink keeps the sweep's reads live.
var coldSink byte

// BenchmarkQuerySocialCold is BenchmarkQuerySocial with the caches swept
// before every query: between queries it reads one byte per 64-byte line
// of an 8 MiB buffer, outside the timed region, so a query finds little of
// its labels, highway rows and adjacency cached. Its ns/op is the mean of
// the queries alone. It fails unless it reports 0 allocs/op, as
// BenchmarkQuerySocial does.
func BenchmarkQuerySocialCold(b *testing.B) {
	f, err := socialQueries()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, coldSweepBytes)
	var before, after runtime.MemStats
	var timed time.Duration
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(buf); j += 64 {
			coldSink += buf[j]
		}
		p := f.pairs[i%len(f.pairs)]
		start := time.Now()
		f.view.Query(p.U, p.V)
		timed += time.Since(start)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if a := (after.Mallocs - before.Mallocs) / uint64(b.N); a != 0 {
		b.Fatalf("%d allocs/op, want 0", a)
	}
	// The sweep runs with the timer on, so that b.N scales with the wall
	// time the loop takes; the reported ns/op counts the queries only.
	b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N), "ns/op")
}

// socialDigraph is the social-read graph with each edge turned into one
// arc of a coin-flipped direction: the directed social-read shape.
func socialDigraph() *dynhl.Digraph {
	g := gen.BarabasiAlbert(200_000, 8, 11)
	dg := dynhl.NewDigraph(g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		dg.AddVertex()
	}
	rng := rand.New(rand.NewSource(12))
	g.Edges(func(u, v uint32) {
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		dg.MustAddEdge(u, v)
	})
	return dg
}

// directedQueries is the directed social-read shape with 20 landmarks: the
// directed search on the social-read shape. It is built and warmed once
// per test binary.
var directedQueries = sync.OnceValues(func() (queryFixture, error) {
	x, err := dynhl.BuildDirected(socialDigraph(), dynhl.Options{Landmarks: 20})
	if err != nil {
		return queryFixture{}, err
	}
	return newQueryFixture(x), nil
})

// BenchmarkDirectedQuery measures one directed query on a Store's
// published snapshot over uniform random pairs of the directed social-read
// shape: the directed Eq. 2 bound and the bounded search forward over
// out-arcs and backward over in-arcs, at 0 allocs/op.
func BenchmarkDirectedQuery(b *testing.B) {
	f, err := directedQueries()
	if err != nil {
		b.Fatal(err)
	}
	f.run(b)
}

// BenchmarkQueryBatch measures a batch query on a published snapshot.
// Batches stay at the serial-path size so the numbers measure the label
// and search kernels, not goroutine fan-out; the only allocation per batch
// is its result slice.
func BenchmarkQueryBatch(b *testing.B) {
	view, pairs := packedBenchSetup(b)
	batch := pairs[:64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.QueryBatch(batch)
	}
}

// BenchmarkPackPublish measures the complete per-epoch publish cost on a
// 50k-vertex store: each iteration is two Store.Apply calls (insert one
// edge, delete it again), each paying fork + IncHL+/DecHL repair, whose
// merge writes only the touched label chunks, + publish.
func BenchmarkPackPublish(b *testing.B) {
	g := testutil.RandomConnectedGraph(packedBenchN, packedBenchEdges, 9)
	idx, err := dynhl.Build(g.Clone(), dynhl.Options{Landmarks: packedBenchLand})
	if err != nil {
		b.Fatal(err)
	}
	st := dynhl.NewStore(idx)
	u, v := uint32(packedBenchN-2), uint32(packedBenchN-7)
	if g.HasEdge(u, v) {
		b.Fatal("benchmark edge already present")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Apply([]dynhl.Op{dynhl.InsertEdgeOp(u, v, 0)}); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Apply([]dynhl.Op{dynhl.DeleteEdgeOp(u, v)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadLabels measures restoring a 50k-vertex labelling from its
// serialised form — the checkpoint-load path: one chunk of entries at a
// time instead of per-vertex decodes.
func BenchmarkLoadLabels(b *testing.B) {
	g := testutil.RandomConnectedGraph(packedBenchN, packedBenchEdges, 9)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: packedBenchLand})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynhl.LoadIndex(bytes.NewReader(buf.Bytes()), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFork measures the copy-on-write fork + publish of an untouched
// oracle — the fixed per-epoch cost a batch pays before its first repair.
func BenchmarkFork(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := testutil.RandomConnectedGraph(n, 2*n, 9)
			idx, err := dynhl.Build(g, dynhl.Options{Landmarks: packedBenchLand})
			if err != nil {
				b.Fatal(err)
			}
			st := dynhl.NewStore(idx)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// An empty batch short-circuits, so apply the smallest
				// possible real batch: one insert of an existing edge is
				// rejected; instead flip one edge on and off.
				if _, err := st.Apply([]dynhl.Op{dynhl.InsertEdgeOp(uint32(n-1), uint32(n-3), 0)}); err != nil {
					b.Fatal(err)
				}
				if _, err := st.Apply([]dynhl.Op{dynhl.DeleteEdgeOp(uint32(n-1), uint32(n-3))}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
