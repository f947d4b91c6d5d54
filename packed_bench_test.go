// Benchmarks for the packed label arena: the same labelling queried
// through the mutable per-vertex slice form versus the CSR-flattened read
// representation published snapshots serve from, plus the cost of the
// pack itself (full and delta-aware) and of loading a packed checkpoint.
package dynhl_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	dynhl "repro"
	"repro/internal/gen"
	"repro/internal/testutil"
)

const (
	packedBenchN     = 50_000
	packedBenchEdges = 100_000
	packedBenchLand  = 20
)

// packedBenchSetup builds two identical oracles over the same 50k-vertex
// graph: one left on the slice representation, one wrapped in a Store so
// its published snapshot answers from the packed arena.
func packedBenchSetup(b *testing.B) (slice *dynhl.Index, packed dynhl.View, pairs []dynhl.Pair) {
	b.Helper()
	g := testutil.RandomConnectedGraph(packedBenchN, packedBenchEdges, 9)
	slice, err := dynhl.Build(g, dynhl.Options{Landmarks: packedBenchLand})
	if err != nil {
		b.Fatal(err)
	}
	packedIdx, err := dynhl.Build(g.Clone(), dynhl.Options{Landmarks: packedBenchLand})
	if err != nil {
		b.Fatal(err)
	}
	st := dynhl.NewStore(packedIdx)
	if st.Snapshot().Stats().PackedBytes == 0 {
		b.Fatal("store snapshot is not packed")
	}
	rng := rand.New(rand.NewSource(77))
	pairs = make([]dynhl.Pair, 4096)
	for i := range pairs {
		pairs[i] = dynhl.Pair{U: uint32(rng.Intn(packedBenchN)), V: uint32(rng.Intn(packedBenchN))}
	}
	return slice, st.Snapshot(), pairs
}

// BenchmarkQuery compares one exact distance query on the slice layout
// (pointer chase per label) against the packed arena (two contiguous entry
// streams); both paths must run allocation-free in steady state.
func BenchmarkQuery(b *testing.B) {
	slice, packed, pairs := packedBenchSetup(b)
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			slice.Query(p.U, p.V)
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			packed.Query(p.U, p.V)
		}
	})
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
// fails unless it reports 0 allocs/op. The query scratch pool caches per
// processor, and each round of a benchmark runs on a new goroutine, so the
// pairs the round will time are queried first on that goroutine: the
// scratch it times has grown as large as those pairs need.
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

// BenchmarkQueryBatch compares batch queries on both layouts. Batches stay
// at the serial-path size so the numbers measure representation, not
// goroutine fan-out; the only allocation per batch is its result slice.
func BenchmarkQueryBatch(b *testing.B) {
	slice, packed, pairs := packedBenchSetup(b)
	batch := pairs[:64]
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slice.QueryBatch(batch)
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			packed.QueryBatch(batch)
		}
	})
}

// BenchmarkPackPublish measures the complete per-epoch publish cost on a
// 50k-vertex store: each iteration is two Store.Apply calls (insert one
// edge, delete it again), each paying fork + IncHL+/DecHL repair +
// delta-aware repack of only the touched arena chunks + publish. The full
// 50k-label flatten is measured separately by internal/hcl's BenchmarkPack.
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
	for i := 0; i < b.N; i++ {
		if _, err := st.Apply([]dynhl.Op{dynhl.InsertEdgeOp(u, v, 0)}); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Apply([]dynhl.Op{dynhl.DeleteEdgeOp(u, v)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadLabels measures restoring a 50k-vertex packed labelling from
// its serialised form — the checkpoint-load path: one bulk arena read
// instead of per-vertex decodes.
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
