// Kernel benchmarks for the weighted variant: one exact query (Eq. 2 bound
// plus the bounded bidirectional Dijkstra) on a Store's packed snapshot,
// and the construction Dijkstras of BuildWeighted.
package dynhl_test

import (
	"math/rand"
	"testing"

	dynhl "repro"
	"repro/internal/gen"
)

const (
	weightedBenchN    = 40_000
	weightedBenchDeg  = 20
	weightedBenchMaxW = 8
	weightedBenchLand = 20
)

// weightedBenchGraph is a web-locality graph (40k vertices, degree 20,
// window 800, 1% hubs) with weights uniform in 1–8: long paths on which
// the bounded Dijkstra is nearly the whole query.
func weightedBenchGraph() *dynhl.WeightedGraph {
	ug := gen.WebLocality(weightedBenchN, weightedBenchDeg, 800, 0.01, 5)
	rng := rand.New(rand.NewSource(6))
	g := dynhl.NewWeightedGraph(weightedBenchN)
	for v := uint32(0); v < weightedBenchN; v++ {
		g.AddVertex()
	}
	for u := uint32(0); u < weightedBenchN; u++ {
		for _, v := range ug.Neighbors(u) {
			if u < v {
				g.MustAddEdge(u, v, dynhl.Dist(1+rng.Intn(weightedBenchMaxW)))
			}
		}
	}
	return g
}

// BenchmarkWeightedQuery measures one weighted query on a Store's
// published snapshot over uniform random pairs. It must stay
// allocation-free.
func BenchmarkWeightedQuery(b *testing.B) {
	idx, err := dynhl.BuildWeighted(weightedBenchGraph(), dynhl.Options{Landmarks: weightedBenchLand})
	if err != nil {
		b.Fatal(err)
	}
	view := dynhl.NewStore(idx).Snapshot()
	rng := rand.New(rand.NewSource(77))
	pairs := make([]dynhl.Pair, 4096)
	for i := range pairs {
		pairs[i] = dynhl.Pair{U: uint32(rng.Intn(weightedBenchN)), V: uint32(rng.Intn(weightedBenchN))}
	}
	for _, p := range pairs[:64] {
		view.Query(p.U, p.V) // warm the query scratch pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		view.Query(p.U, p.V)
	}
}

// BenchmarkBuildWeighted measures the serial construction of the weighted
// labelling: one covered-flag Dijkstra per landmark over the whole graph.
func BenchmarkBuildWeighted(b *testing.B) {
	g := weightedBenchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynhl.BuildWeighted(g, dynhl.Options{Landmarks: weightedBenchLand}); err != nil {
			b.Fatal(err)
		}
	}
}
