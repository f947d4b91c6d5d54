package graph

import (
	"math/rand"

	"repro/internal/queue"
)

// AvgDegree returns the average vertex degree (2|E|/|V|).
func AvgDegree(g *Graph) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n)
}

// AvgDistance estimates the average shortest-path distance over connected
// pairs by running BFS from up to samples random sources (deterministic for
// a given seed). It mirrors the "avg. dist" column of Table 2 in the paper.
func AvgDistance(g *Graph, samples int, seed int64) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	if samples > n {
		samples = n
	}
	rng := rand.New(rand.NewSource(seed))
	dist := make([]Dist, n)
	var q queue.FIFO[uint32]
	var sum float64
	var count uint64
	for s := 0; s < samples; s++ {
		src := uint32(rng.Intn(n))
		for i := range dist {
			dist[i] = Inf
		}
		dist[src] = 0
		q.Reset()
		q.Push(src)
		for !q.Empty() {
			v := q.Pop()
			dv := dist[v]
			for _, w := range g.Neighbors(v) {
				if dist[w] == Inf {
					dist[w] = dv + 1
					q.Push(w)
				}
			}
		}
		for v := 0; v < n; v++ {
			if uint32(v) != src && dist[v] != Inf {
				sum += float64(dist[v])
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// ConnectedComponents returns the component id of every vertex and the
// number of components.
func ConnectedComponents(g *Graph) (comp []int, n int) {
	comp = make([]int, g.NumVertices())
	for i := range comp {
		comp[i] = -1
	}
	var q queue.FIFO[uint32]
	for s := range comp {
		if comp[s] != -1 {
			continue
		}
		comp[s] = n
		q.Reset()
		q.Push(uint32(s))
		for !q.Empty() {
			v := q.Pop()
			for _, w := range g.Neighbors(v) {
				if comp[w] == -1 {
					comp[w] = n
					q.Push(w)
				}
			}
		}
		n++
	}
	return comp, n
}

// LargestComponentSize returns the vertex count of the largest connected
// component.
func LargestComponentSize(g *Graph) int {
	comp, n := ConnectedComponents(g)
	if n == 0 {
		return 0
	}
	sizes := make([]int, n)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}
