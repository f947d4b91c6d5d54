// Benchmarks for the concurrent read path: the same read-heavy workload
// served four ways — the old single-mutex serialization, an explicit
// RWMutex (the concurrency wrapper before the snapshot redesign),
// lock-free snapshot reads through the Store, and the worker-fanned
// QueryBatch. BenchmarkReadUnderWrite adds the latency view: reader p99
// with a sustained writer applying IncHL+/DecHL batches, where the RWMutex
// turns every repair into a reader stall and the snapshot path does not.
package dynhl_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	dynhl "repro"
	"repro/internal/dataset"
	"repro/internal/exper"
	"repro/internal/testutil"
)

var benchSink dynhl.Dist

func benchOracle(b *testing.B) (*dynhl.Index, []dynhl.Pair) {
	b.Helper()
	spec, err := dataset.Lookup("Skitter")
	if err != nil {
		b.Fatal(err)
	}
	g := dataset.Generate(spec, benchScale, benchSeed)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: spec.Landmarks, Parallel: true})
	if err != nil {
		b.Fatal(err)
	}
	qs := exper.SampleQueries(g.NumVertices(), 1<<14, benchSeed+3)
	pairs := make([]dynhl.Pair, len(qs))
	for i, q := range qs {
		pairs[i] = dynhl.Pair{U: q[0], V: q[1]}
	}
	return idx, pairs
}

const benchPairMask = 1<<14 - 1

func BenchmarkReadsMutexSerialized(b *testing.B) {
	idx, pairs := benchOracle(b)
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink dynhl.Dist
		i := 0
		for pb.Next() {
			p := pairs[i&benchPairMask]
			i++
			mu.Lock()
			sink ^= idx.Query(p.U, p.V)
			mu.Unlock()
		}
		benchSink = sink
	})
}

func BenchmarkReadsRWMutexParallel(b *testing.B) {
	idx, pairs := benchOracle(b)
	var mu sync.RWMutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink dynhl.Dist
		i := 0
		for pb.Next() {
			p := pairs[i&benchPairMask]
			i++
			mu.RLock()
			sink ^= idx.Query(p.U, p.V)
			mu.RUnlock()
		}
		benchSink = sink
	})
}

func BenchmarkReadsSnapshotParallel(b *testing.B) {
	idx, pairs := benchOracle(b)
	st := dynhl.NewStore(idx)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink dynhl.Dist
		i := 0
		for pb.Next() {
			p := pairs[i&benchPairMask]
			i++
			sink ^= st.Query(p.U, p.V)
		}
		benchSink = sink
	})
}

func BenchmarkReadsQueryBatch(b *testing.B) {
	idx, pairs := benchOracle(b)
	st := dynhl.NewStore(idx)
	const batch = 1 << 10
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		lo := i & benchPairMask
		hi := lo + batch
		if hi > len(pairs) {
			hi = len(pairs)
		}
		ds := st.QueryBatch(pairs[lo:hi])
		benchSink ^= ds[0]
	}
}

// latencyRecorder collects per-query latencies across reader goroutines.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (lr *latencyRecorder) add(batch []time.Duration) {
	lr.mu.Lock()
	lr.samples = append(lr.samples, batch...)
	lr.mu.Unlock()
}

func (lr *latencyRecorder) p99() time.Duration {
	if len(lr.samples) == 0 {
		return 0
	}
	sort.Slice(lr.samples, func(i, j int) bool { return lr.samples[i] < lr.samples[j] })
	return lr.samples[(len(lr.samples)-1)*99/100]
}

// BenchmarkReadUnderWrite measures reader query latency with a sustained
// writer goroutine churning edges, reported as a p99-ns metric alongside
// the usual ns/op. The rwmutex variants serialise readers behind every
// repair (the pre-snapshot design); the snapshot variants never block. The
// idle variants are the baseline the acceptance criterion compares against:
// snapshot p99 under sustained writes stays within 2× of snapshot-idle p99.
func BenchmarkReadUnderWrite(b *testing.B) {
	run := func(b *testing.B, pairs []dynhl.Pair, query func(u, v uint32) dynhl.Dist, writer func(stop <-chan struct{})) {
		var rec latencyRecorder
		stop := make(chan struct{})
		var wwg sync.WaitGroup
		if writer != nil {
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				writer(stop)
			}()
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var sink dynhl.Dist
			local := make([]time.Duration, 0, 4096)
			i := 0
			for pb.Next() {
				p := pairs[i&benchPairMask]
				i++
				t0 := time.Now()
				sink ^= query(p.U, p.V)
				local = append(local, time.Since(t0))
			}
			benchSink = sink
			rec.add(local)
		})
		b.StopTimer()
		close(stop)
		wwg.Wait()
		b.ReportMetric(float64(rec.p99().Nanoseconds()), "p99-ns")
	}

	// churn returns insert/delete batches over non-edges of g.
	churnEdges := func(idx *dynhl.Index) [][2]uint32 {
		return testutil.NonEdges(idx.Graph(), 64, benchSeed+11)
	}

	b.Run("rwmutex/idle", func(b *testing.B) {
		idx, pairs := benchOracle(b)
		var mu sync.RWMutex
		run(b, pairs, func(u, v uint32) dynhl.Dist {
			mu.RLock()
			defer mu.RUnlock()
			return idx.Query(u, v)
		}, nil)
	})
	b.Run("rwmutex/sustained", func(b *testing.B) {
		idx, pairs := benchOracle(b)
		var mu sync.RWMutex
		edges := churnEdges(idx)
		run(b, pairs, func(u, v uint32) dynhl.Dist {
			mu.RLock()
			defer mu.RUnlock()
			return idx.Query(u, v)
		}, func(stop <-chan struct{}) {
			for {
				for _, e := range edges {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					idx.InsertEdge(e[0], e[1], 0)
					mu.Unlock()
				}
				for _, e := range edges {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					idx.DeleteEdge(e[0], e[1])
					mu.Unlock()
				}
			}
		})
	})
	b.Run("snapshot/idle", func(b *testing.B) {
		idx, pairs := benchOracle(b)
		st := dynhl.NewStore(idx)
		run(b, pairs, st.Query, nil)
	})
	b.Run("snapshot/sustained", func(b *testing.B) {
		idx, pairs := benchOracle(b)
		st := dynhl.NewStore(idx)
		edges := churnEdges(idx)
		const batch = 8
		run(b, pairs, st.Query, func(stop <-chan struct{}) {
			for {
				for lo := 0; lo < len(edges); lo += batch {
					select {
					case <-stop:
						return
					default:
					}
					hi := min(lo+batch, len(edges))
					ops := make([]dynhl.Op, 0, batch)
					for _, e := range edges[lo:hi] {
						ops = append(ops, dynhl.InsertEdgeOp(e[0], e[1], 0))
					}
					if _, err := st.Apply(ops); err != nil {
						b.Error(err)
						return
					}
				}
				for lo := 0; lo < len(edges); lo += batch {
					select {
					case <-stop:
						return
					default:
					}
					hi := min(lo+batch, len(edges))
					ops := make([]dynhl.Op, 0, batch)
					for _, e := range edges[lo:hi] {
						ops = append(ops, dynhl.DeleteEdgeOp(e[0], e[1]))
					}
					if _, err := st.Apply(ops); err != nil {
						b.Error(err)
						return
					}
				}
			}
		})
	})
	// snapshot/insert-vertex grows the graph by one vertex with two edges
	// per write, so every published epoch has more vertices than the query
	// scratch handed out before it: its p99 beside snapshot/sustained's is
	// the cost of growing that scratch.
	b.Run("snapshot/insert-vertex", func(b *testing.B) {
		idx, pairs := benchOracle(b)
		st := dynhl.NewStore(idx)
		n := idx.Graph().NumVertices()
		rng := rand.New(rand.NewSource(benchSeed + 13))
		run(b, pairs, st.Query, func(stop <-chan struct{}) {
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, c := uint32(rng.Intn(n)), uint32(rng.Intn(n-1))
				if c >= a {
					c++
				}
				if _, err := st.Apply([]dynhl.Op{dynhl.InsertVertexOp(dynhl.Arc{To: a}, dynhl.Arc{To: c})}); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
