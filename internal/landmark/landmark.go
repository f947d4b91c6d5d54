// Package landmark implements landmark (root) selection strategies for the
// highway cover labelling. The paper selects the |R| highest-degree vertices
// (the standard choice for complex networks, following Farhan et al. EDBT
// 2019 and Hayashi et al. CIKM 2016); random and degree-weighted strategies
// are provided for ablations. The strategies are defined over an abstract
// degree function so the undirected, directed and weighted variants all
// share them (SelectBy).
package landmark

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Strategy names accepted by Select and SelectBy.
const (
	TopDegree      = "topdegree"
	Random         = "random"
	WeightedRandom = "weighted"
)

// ByDegree returns the k vertices with the highest degree, ties broken by
// smaller vertex id. If the graph has fewer than k vertices all of them are
// returned.
func ByDegree(g *graph.Graph, k int) []uint32 {
	return byDegreeFunc(g.NumVertices(), g.Degree, k)
}

func byDegreeFunc(n int, degree func(uint32) int, k int) []uint32 {
	if k > n {
		k = n
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := degree(ids[i]), degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	out := append([]uint32(nil), ids[:k]...)
	return out
}

// ByRandom returns k distinct vertices chosen uniformly at random with the
// given seed.
func ByRandom(g *graph.Graph, k int, seed int64) []uint32 {
	return byRandomN(g.NumVertices(), k, seed)
}

func byRandomN(n, k int, seed int64) []uint32 {
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	out := make([]uint32, k)
	for i := 0; i < k; i++ {
		out[i] = uint32(perm[i])
	}
	return out
}

// ByWeightedRandom returns k distinct vertices sampled without replacement
// with probability proportional to degree+1.
func ByWeightedRandom(g *graph.Graph, k int, seed int64) []uint32 {
	return byWeightedRandomFunc(g.NumVertices(), g.Degree, g.NumEdges(), k, seed)
}

func byWeightedRandomFunc(n int, degree func(uint32) int, edges uint64, k int, seed int64) []uint32 {
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	chosen := make(map[uint32]bool, k)
	total := 2*int64(edges) + int64(n)
	out := make([]uint32, 0, k)
	for len(out) < k {
		t := rng.Int63n(total)
		var acc int64
		for v := 0; v < n; v++ {
			acc += int64(degree(uint32(v)) + 1)
			if acc > t {
				if !chosen[uint32(v)] {
					chosen[uint32(v)] = true
					out = append(out, uint32(v))
				}
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SelectBy picks k landmarks among vertices 0..n-1 using the named strategy
// over an arbitrary degree function. edges is the graph's edge count with
// Σ_v degree(v) = 2·edges (which holds for undirected degree, weighted
// degree, and directed in+out degree alike); it only weights the
// degree-proportional sampling of WeightedRandom.
func SelectBy(n int, degree func(uint32) int, edges uint64, k int, strategy string, seed int64) ([]uint32, error) {
	switch strategy {
	case TopDegree, "":
		return byDegreeFunc(n, degree, k), nil
	case Random:
		return byRandomN(n, k, seed), nil
	case WeightedRandom:
		return byWeightedRandomFunc(n, degree, edges, k, seed), nil
	default:
		return nil, fmt.Errorf("landmark: unknown strategy %q", strategy)
	}
}
