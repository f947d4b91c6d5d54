// Package testutil provides deterministic random graphs and ground-truth
// oracles shared by the test suites of the labelling packages, and the
// helpers the write-pipeline tests share.
package testutil

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// RandomGraph returns a graph with n vertices and approximately m distinct
// random edges (self-loops and duplicates are skipped, so fewer edges may
// result on dense requests). Deterministic for a given seed.
func RandomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	for i := 0; i < m; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		_, _ = g.AddEdge(u, v)
	}
	return g
}

// RandomConnectedGraph returns a connected graph: a random spanning tree
// plus extra random edges.
func RandomConnectedGraph(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := uint32(perm[i])
		v := uint32(perm[rng.Intn(i)])
		_, _ = g.AddEdge(u, v)
	}
	for i := 0; i < extra; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u != v {
			_, _ = g.AddEdge(u, v)
		}
	}
	return g
}

// NonEdges returns up to count vertex pairs that are not edges of g,
// deterministically for a seed, without duplicates.
func NonEdges(g *graph.Graph, count int, seed int64) [][2]uint32 {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	seen := make(map[[2]uint32]bool)
	var out [][2]uint32
	for tries := 0; len(out) < count && tries < count*200; tries++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		key := [2]uint32{min(u, v), max(u, v)}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, [2]uint32{u, v})
	}
	return out
}

// BoundsAround returns the bounds that pin an exclusive search bound at a
// distance d: d−1 and d, which must hide d, and d+1 and graph.Inf, which
// must find it. For d = 0 and d = graph.Inf they are 0, 1 and graph.Inf.
func BoundsAround(d graph.Dist) []graph.Dist {
	if d == 0 || d == graph.Inf {
		return []graph.Dist{0, 1, graph.Inf}
	}
	return []graph.Dist{d - 1, d, d + 1, graph.Inf}
}

// ScaledLowerBounds returns the lower bounds of a weighted search between
// u and v (wgraph's SparsifiedLB) that answer num/den of the exact distance
// from x to the endpoint t, read from toU and toV, the distances from u
// and from v in the searched graph. An unreachable x keeps its graph.Inf.
// num = den gives the tightest valid bound; num = 0 gives 0 everywhere.
func ScaledLowerBounds(toU, toV []graph.Dist, v uint32, num, den graph.Dist) func(x, t uint32) graph.Dist {
	return func(x, t uint32) graph.Dist {
		d := toU[x]
		if t == v {
			d = toV[x]
		}
		if d == graph.Inf {
			return d
		}
		return graph.Dist(uint64(d) * uint64(num) / uint64(den))
	}
}

// AllPairsOracle computes the exact all-pairs distances of g with one BFS
// per vertex. Quadratic memory: test-sized graphs only.
func AllPairsOracle(g *graph.Graph) [][]graph.Dist {
	n := g.NumVertices()
	d := make([][]graph.Dist, n)
	for v := 0; v < n; v++ {
		d[v] = bfs.Distances(g, uint32(v))
	}
	return d
}

// QueuedContext returns a never-cancelled context that closes queued the
// first time its Done method is called. Store.ApplyCtx asks for Done only
// once the batch is on the apply queue, so a test learns from queued that
// the batch is queued: batches handed to ApplyCtx one at a time, each
// after the previous one's queued closed, queue in that order.
func QueuedContext() (ctx context.Context, queued <-chan struct{}) {
	c := &queuedCtx{Context: context.Background(), queued: make(chan struct{})}
	return c, c.queued
}

type queuedCtx struct {
	context.Context
	queued chan struct{}
	once   sync.Once
}

func (c *queuedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.queued) })
	return c.Context.Done()
}
