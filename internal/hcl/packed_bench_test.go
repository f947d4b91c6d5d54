package hcl

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/testutil"
)

func benchKernelIndex(b *testing.B) (*Labelled[*graph.Graph], []struct{ u, v uint32 }) {
	b.Helper()
	g := testutil.RandomConnectedGraph(50_000, 100_000, 9)
	lms := make([]uint32, 20)
	for i := range lms {
		lms[i] = uint32(i * 601)
	}
	idx, err := Build(g, lms, 1)
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

// BenchmarkUpperBound isolates the Equation 2 label-read kernel, the part
// of a query that reads labels (the bounded BFS that follows it reads only
// the graph).
func BenchmarkUpperBound(b *testing.B) {
	idx, pairs := benchKernelIndex(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		idx.UpperBound(p.u, p.v)
	}
}
