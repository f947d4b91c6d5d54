package hcl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

func benchKernelIndex(b *testing.B) (*Index, []struct{ u, v uint32 }) {
	b.Helper()
	g := testutil.RandomConnectedGraph(50_000, 100_000, 9)
	lms := make([]uint32, 20)
	for i := range lms {
		lms[i] = uint32(i * 601)
	}
	idx, err := Build(g, lms)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	pairs := make([]struct{ u, v uint32 }, 4096)
	for i := range pairs {
		pairs[i] = struct{ u, v uint32 }{uint32(rng.Intn(50_000)), uint32(rng.Intn(50_000))}
	}
	return idx, pairs
}

// BenchmarkUpperBound isolates the Equation 2 label-read kernel — the part
// of a query the packed arena accelerates (the bounded BFS that follows it
// is representation-independent). Each sub-benchmark pins the index to one
// representation of the same labelling, so the numbers compare layouts,
// not workloads.
func BenchmarkUpperBound(b *testing.B) {
	idx, pairs := benchKernelIndex(b)
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			idx.UpperBound(p.u, p.v)
		}
	}
	b.Run("slice", func(b *testing.B) {
		idx.unpack()
		run(b)
	})
	b.Run("packed", func(b *testing.B) {
		idx.Pack()
		run(b)
	})
}

// BenchmarkPack measures the flatten itself: a full pack of 50k labels
// versus the delta-aware repack after a fork touched ten vertices (chunks
// outside the touched ranges are reused from the parent by reference).
// The delta loop re-arms one prepared fork instead of re-forking per
// iteration, so the timed region is exactly the repack.
func BenchmarkPack(b *testing.B) {
	idx, _ := benchKernelIndex(b)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Pack(idx.Labels(0), nil)
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("full-parallel/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PackParallel(idx.Labels(0), nil, w)
			}
		})
	}
	idx.Pack()
	fork := idx.Fork(idx.G) // packing-only use: the graph is never mutated
	for v := uint32(100); v < 110; v++ {
		fork.SetEntry(v, 3, 4)
	}
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fork.unpack()
			fork.parent = &idx.Core
			fork.Pack()
		}
	})
}
