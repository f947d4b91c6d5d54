package hcl

import "repro/internal/graph"

// Index is the labelled index of an undirected graph. Only the benchmark
// module's layer trace (bench/trace) still names it.
type Index = Labelled[*graph.Graph]

// BuildParallel is Build over an undirected graph. Only the benchmark
// module's layer trace (bench/trace) still calls it.
func BuildParallel(g *graph.Graph, landmarks []uint32, workers int) (*Index, error) {
	return Build(g, landmarks, workers)
}
