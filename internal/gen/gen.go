// Package gen provides deterministic synthetic graph generators used to
// build scaled-down proxies of the paper's 12 evaluation networks:
// preferential attachment and R-MAT for social/communication graphs (small
// average distance, heavy-tailed degrees) and a locality-based web model for
// the high-average-distance web crawls (Indochina, IT, UK, Clueweb09).
package gen

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// BarabasiAlbert generates a preferential-attachment graph: n vertices, each
// new vertex attaching m edges to existing vertices with probability
// proportional to degree. Classic small-world scale-free model for social
// and communication networks.
func BarabasiAlbert(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	if n == 0 {
		return graph.New(0)
	}
	// Repeated-endpoints list: picking a uniform element is degree-biased.
	// Its pairs are the edges in the order they are drawn: each joins a new
	// vertex to distinct older ones, so none repeats, and the graph is laid
	// out from them at once.
	targets := make([]uint32, 0, 2*n*m)
	for v := 1; v < n; v++ {
		id := uint32(v)
		links := m
		if v < m {
			links = v
		}
		attached := make([]uint32, 0, links)
		contains := func(t uint32) bool {
			for _, x := range attached {
				if x == t {
					return true
				}
			}
			return false
		}
		for len(attached) < links {
			var t uint32
			if len(targets) == 0 {
				t = uint32(rng.Intn(v))
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if t == id || contains(t) {
				// Fall back to uniform choice to guarantee progress on
				// saturated neighbourhoods.
				t = uint32(rng.Intn(v))
				if t == id || contains(t) {
					continue
				}
			}
			attached = append(attached, t)
		}
		for _, t := range attached {
			targets = append(targets, id, t)
		}
	}
	g, err := graph.FromEdges(n, len(targets)/2, func(i int) (uint32, uint32) { return targets[2*i], targets[2*i+1] })
	if err != nil {
		panic(err) // unreachable: no edge repeats or loops
	}
	return g
}

// ErdosRenyi generates G(n, M): n vertices and up to M distinct uniform
// random edges.
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	added := 0
	for tries := 0; added < m && tries < 50*m+1000; tries++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		if ok, _ := g.AddEdge(u, v); ok {
			added++
		}
	}
	return g
}

// WattsStrogatz generates a small-world ring lattice: n vertices each joined
// to their k nearest neighbours, with each edge rewired to a random endpoint
// with probability beta.
func WattsStrogatz(n, k int, beta float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	if k >= n {
		k = n - 1
	}
	edges := make(map[edge]bool)
	norm := func(u, v uint32) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	for i := 0; i < n; i++ {
		for j := 1; j <= k/2; j++ {
			edges[norm(uint32(i), uint32((i+j)%n))] = true
		}
	}
	// Rewire.
	out := make([]edge, 0, len(edges))
	for e := range edges {
		out = append(out, e)
	}
	// Deterministic iteration order for reproducibility.
	sortEdges(out)
	final := make(map[edge]bool, len(out))
	for _, e := range out {
		if rng.Float64() < beta {
			for tries := 0; tries < 32; tries++ {
				w := uint32(rng.Intn(n))
				ne := norm(e.u, w)
				if w != e.u && !final[ne] && !edges[ne] {
					e = ne
					break
				}
			}
		}
		final[e] = true
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	fin := make([]edge, 0, len(final))
	for e := range final {
		fin = append(fin, e)
	}
	sortEdges(fin)
	for _, e := range fin {
		if e.u != e.v {
			_, _ = g.AddEdge(e.u, e.v)
		}
	}
	return g
}

// RMAT generates a recursive-matrix graph with 2^scale vertices and up to
// edges distinct edges, quadrant probabilities (a,b,c,d). The standard
// heavy-tailed model for social networks (Graph500 uses a=0.57, b=c=0.19).
func RMAT(scale, edges int, a, b, c float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	added := 0
	for tries := 0; added < edges && tries < 20*edges+1000; tries++ {
		var u, v int
		for level := 0; level < scale; level++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: nothing to add
			case r < a+b:
				v |= 1 << level
			case r < a+b+c:
				u |= 1 << level
			default:
				u |= 1 << level
				v |= 1 << level
			}
		}
		if u == v {
			continue
		}
		if ok, _ := g.AddEdge(uint32(u), uint32(v)); ok {
			added++
		}
	}
	return g
}

// WebLocality generates a web-crawl-like graph with high average distance:
// vertices are laid out on a line (crawl order); each vertex links to deg/2
// predecessors chosen within a window of span positions (hierarchical
// locality), and a fraction hubFrac of vertices become regional hubs that
// attract extra links from their neighbourhood, giving the skewed degrees of
// host-level web graphs while keeping the graph "long".
func WebLocality(n, deg, span int, hubFrac float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
	}
	if n < 2 {
		return g
	}
	if span < 1 {
		span = 1
	}
	half := deg / 2
	if half < 1 {
		half = 1
	}
	// Regional hubs, one every hubEvery positions.
	hubEvery := n
	if hubFrac > 0 {
		hubEvery = int(1 / hubFrac)
		if hubEvery < 1 {
			hubEvery = 1
		}
	}
	isHub := func(v int) bool { return v%hubEvery == 0 }
	for v := 1; v < n; v++ {
		links := half
		if isHub(v) {
			links += half // hubs link more themselves
		}
		for i := 0; i < links; i++ {
			w := v - 1 - rng.Intn(min(v, span))
			// With some probability snap to the nearest earlier hub,
			// concentrating degree like host-level home pages do.
			if hubFrac > 0 && rng.Float64() < 0.35 {
				w = (w / hubEvery) * hubEvery
			}
			if w < 0 || w == v {
				continue
			}
			_, _ = g.AddEdge(uint32(v), uint32(w))
		}
		// Guarantee connectivity along the crawl frontier.
		if g.Degree(uint32(v)) == 0 {
			g.MustAddEdge(uint32(v), uint32(v-1))
		}
	}
	return g
}

type edge struct{ u, v uint32 }

func sortEdges(es []edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
}
