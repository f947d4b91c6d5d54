// Kernel benchmarks for the weighted variant: one exact query (Eq. 2 bound
// plus the bounded bidirectional Dijkstra) on a Store's packed snapshot,
// and the construction Dijkstras of BuildWeighted.
package dynhl_test

import (
	"math/rand"
	"sync"
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

// weightedQueries is a query fixture over the weighted benchmark graph with
// 20 landmarks, built and warmed once per test binary.
var weightedQueries = sync.OnceValues(func() (queryFixture, error) {
	idx, err := dynhl.BuildWeighted(weightedBenchGraph(), dynhl.Options{Landmarks: weightedBenchLand})
	if err != nil {
		return queryFixture{}, err
	}
	return newQueryFixture(idx), nil
})

// BenchmarkWeightedQuery measures one weighted query on a Store's
// published snapshot over uniform random pairs, at 0 allocs/op.
func BenchmarkWeightedQuery(b *testing.B) {
	f, err := weightedQueries()
	if err != nil {
		b.Fatal(err)
	}
	f.run(b)
}

// BenchmarkWeightedQueryCold is BenchmarkWeightedQuery with the caches
// swept before every query (runCold).
func BenchmarkWeightedQueryCold(b *testing.B) {
	f, err := weightedQueries()
	if err != nil {
		b.Fatal(err)
	}
	f.runCold(b)
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
