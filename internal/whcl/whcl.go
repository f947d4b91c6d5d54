// Package whcl holds the names the benchmark module's layer trace
// (bench/trace) still uses for the weighted labelled index, which is
// internal/hcl's hcl.Labelled over a wgraph.Graph.
package whcl

import (
	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// Index is the weighted labelled index. Only bench/trace still names it.
type Index = hcl.Labelled[*wgraph.Graph]

// Stats reports what one update did. Only bench/trace still names it.
type Stats = hcl.Stats

// BuildParallel is hcl.Build over a weighted graph. Only bench/trace
// still calls it.
func BuildParallel(g *wgraph.Graph, landmarks []uint32, workers int) (*Index, error) {
	return hcl.Build(g, landmarks, workers)
}
