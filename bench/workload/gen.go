package workload

// BarabasiAlbert grows an n-vertex preferential-attachment graph: vertex v
// attaches min(m, v) edges to earlier vertices chosen with probability
// proportional to degree. It is the social-network shape of the paper's
// small-diameter datasets.
func BarabasiAlbert(n, m int, r *Rand) *Graph {
	g := NewGraph(n, false)
	// Every edge contributes both endpoints, so a uniform pick from this
	// list is a degree-proportional pick of a vertex.
	ends := make([]uint32, 0, 2*n*m)
	for v := 1; v < n; v++ {
		links := min(m, v)
		for len(g.adj[v]) < links {
			var t uint32
			if len(ends) == 0 {
				t = uint32(r.Intn(v))
			} else {
				t = ends[r.Intn(len(ends))]
			}
			if g.HasEdge(uint32(v), t) {
				// A hub already taken: fall back to a uniform pick so
				// saturated neighbourhoods still make progress.
				t = uint32(r.Intn(v))
				if g.HasEdge(uint32(v), t) {
					continue
				}
			}
			g.AddEdge(uint32(v), t, 1)
		}
		for _, t := range g.adj[v] {
			ends = append(ends, uint32(v), t)
		}
	}
	return g
}

// WebLocality lays n vertices on a line, as a crawl would visit them, and
// links each to about deg/2 predecessors inside a window of span positions.
// Every 1/hubFrac-th vertex is a regional hub that links twice as much and
// attracts a 35% share of its neighbourhood's links. The result has the
// long distances and skewed degrees of the paper's web crawls.
func WebLocality(n, deg, span int, hubFrac float64, r *Rand) *Graph {
	g := NewGraph(n, false)
	half := max(deg/2, 1)
	hubEvery := max(int(1/hubFrac), 1)
	for v := 1; v < n; v++ {
		links := half
		if v%hubEvery == 0 {
			links += half
		}
		for i := 0; i < links; i++ {
			w := v - 1 - r.Intn(min(v, span))
			if r.Float64() < 0.35 {
				w = w / hubEvery * hubEvery
			}
			if w != v && !g.HasEdge(uint32(v), uint32(w)) {
				g.AddEdge(uint32(v), uint32(w), 1)
			}
		}
		if len(g.adj[v]) == 0 {
			g.AddEdge(uint32(v), uint32(v-1), 1)
		}
	}
	return g
}

// WithWeights returns a weighted copy of g whose edges, taken in edge-list
// order, get weights drawn uniformly from 1..maxW.
func WithWeights(g *Graph, maxW int, r *Rand) *Graph {
	w := NewGraph(g.NumVertices(), true)
	for u, l := range g.adj {
		for _, v := range l {
			if v > uint32(u) {
				w.AddEdge(uint32(u), v, uint32(1+r.Intn(maxW)))
			}
		}
	}
	return w
}
