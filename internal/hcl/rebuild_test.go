package hcl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queue"
)

// queueBFS is the covered-flag BFS as a single FIFO queue: every vertex
// scans all its children, discovering the unvisited ones and passing its
// covered flag to every child one level down. RebuildBFS must compute the
// same dist, and the same covered wherever dist is finite, under every
// direction sequence.
func (c *Core) queueBFS(root uint32, children func(uint32) []uint32) ([]graph.Dist, []bool) {
	dist, covered := make([]graph.Dist, len(c.rankArr)), make([]bool, len(c.rankArr))
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[root] = 0
	var q queue.FIFO[uint32]
	q.Push(root)
	for !q.Empty() {
		v := q.Pop()
		dv, cv := dist[v], covered[v]
		for _, w := range children(v) {
			switch {
			case dist[w] == graph.Inf:
				dist[w] = dv + 1
				covered[w] = cv || (c.rankArr[w] != noRank && w != root)
				q.Push(w)
			case dist[w] == dv+1 && cv:
				covered[w] = true
			}
		}
	}
	return dist, covered
}

// directions are the direction sequences RebuildBFS is checked under: the
// switch rule (nil) and three forced ones.
var directions = []struct {
	name  string
	force func(graph.Dist) bool
}{
	{"heuristic", nil},
	{"top-down", func(graph.Dist) bool { return false }},
	{"bottom-up", func(graph.Dist) bool { return true }},
	{"alternating", func(d graph.Dist) bool { return d%2 == 1 }},
}

// kernelCase is a test graph with its landmarks.
type kernelCase struct {
	name string
	g    *adj[uint32]
	lms  []uint32
}

// fromEdges returns g's edges as a test graph; a directed one orients each
// edge at random and keeps a fifth of them in both directions.
func fromEdges(g *graph.Graph, directed bool, rng *rand.Rand) *adj[uint32] {
	a := newAdj[uint32](g.NumVertices(), directed)
	g.Edges(func(u, v uint32) {
		if directed && rng.Intn(2) == 0 {
			u, v = v, u
		}
		a.add(u, v, 1)
		if directed && rng.Intn(5) == 0 {
			a.add(v, u, 1)
		}
	})
	return a
}

// topDegree returns the k vertices of largest out-degree.
func topDegree(g *adj[uint32], k int) []uint32 {
	vs := make([]uint32, len(g.out))
	for i := range vs {
		vs[i] = uint32(i)
	}
	slices.SortStableFunc(vs, func(a, b uint32) int { return len(g.out[b]) - len(g.out[a]) })
	return vs[:k]
}

func kernelCases(directed bool) []kernelCase {
	rng := rand.New(rand.NewSource(21))
	path := graph.New(0)
	star := graph.New(0)
	for v := uint32(1); v < 40; v++ {
		path.MustAddEdge(v-1, v)
		star.MustAddEdge(0, v)
	}
	// Two components, and a vertex of neither: the landmarks of one
	// component never reach the other.
	split := gen.BarabasiAlbert(300, 3, 5)
	other := gen.WattsStrogatz(200, 4, 0.1, 6)
	other.Edges(func(u, v uint32) { split.MustAddEdge(300+u, 300+v) })
	split.EnsureVertex(600)
	// Two dense halves whose only link runs through landmark 100.
	bridge := gen.ErdosRenyi(200, 1200, 7)
	cut := graph.New(201)
	bridge.Edges(func(u, v uint32) {
		if (u < 100) == (v < 100) {
			cut.MustAddEdge(u, v)
		}
	})
	cut.MustAddEdge(0, 200)
	cut.MustAddEdge(200, 150)
	ba := gen.BarabasiAlbert(2000, 4, 8)
	cases := []kernelCase{
		{"path", fromEdges(path, directed, rng), []uint32{0, 20, 39}},
		{"star", fromEdges(star, directed, rng), []uint32{0, 7}},
		{"ring", fromEdges(gen.WattsStrogatz(500, 6, 0, 9), directed, rng), []uint32{0, 3, 250}},
		{"small-world", fromEdges(gen.WattsStrogatz(1000, 6, 0.05, 10), directed, rng), []uint32{1, 500, 999}},
		{"split", fromEdges(split, directed, rng), []uint32{0, 1, 300, 600}},
		{"bridge", fromEdges(cut, directed, rng), []uint32{200, 3, 150}},
	}
	g := fromEdges(ba, directed, rng)
	cases = append(cases, kernelCase{"barabasi-albert", g, topDegree(g, 12)})
	// A landmark path: a hub, its first child and that child's first other
	// child.
	hub := topDegree(g, 1)[0]
	lms := []uint32{hub, g.out[hub][0]}
	for _, w := range g.out[lms[1]] {
		if w != hub {
			lms = append(lms, w)
			break
		}
	}
	cases = append(cases, kernelCase{"adjacent", g, lms})
	return cases
}

// TestRebuildBFSMatchesQueue pins the direction-optimizing covered-flag BFS
// to the queue-based one on undirected and directed graphs, for every
// landmark and label direction, under the switch rule and forced all
// top-down, all bottom-up and alternating.
func TestRebuildBFSMatchesQueue(t *testing.T) {
	defer func() { forceDirection = nil }()
	for _, directed := range []bool{false, true} {
		for _, kc := range kernelCases(directed) {
			dirs := 1
			if directed {
				dirs = 2
			}
			c, err := NewCore(Kind{Magic: "TEST", Dirs: dirs}, len(kc.g.out), kc.lms)
			if err != nil {
				t.Fatal(err)
			}
			for _, dd := range directions {
				forceDirection = dd.force
				name := fmt.Sprintf("%s/directed=%v/%s", kc.name, directed, dd.name)
				for r, root := range kc.lms {
					for dir := 0; dir < dirs; dir++ {
						children, parents := kc.g.pass(dir)
						want, wantCovered := c.queueBFS(root, children)
						var ws Scratch
						c.RebuildBFS(&ws, &Delta{Rank: uint16(r), Dir: dir}, children, parents)
						for v, d := range want {
							if ws.dist[v] != d {
								t.Fatalf("%s: landmark %d dir %d: dist(%d) = %d, want %d", name, root, dir, v, ws.dist[v], d)
							}
							if d != graph.Inf && ws.covered[v] != wantCovered[v] {
								t.Fatalf("%s: landmark %d dir %d: covered(%d) = %v, want %v", name, root, dir, v, ws.covered[v], wantCovered[v])
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildSameUnderEveryDirection pins that the whole construction — the
// labels and highway the searches' deltas merge into — does not depend on
// the direction sequence.
func TestBuildSameUnderEveryDirection(t *testing.T) {
	defer func() { forceDirection = nil }()
	for _, directed := range []bool{false, true} {
		kc := kernelCases(directed)[6] // barabasi-albert
		forceDirection = directions[1].force
		want := kc.g.build(t, kc.lms)
		for _, dd := range directions {
			forceDirection = dd.force
			if err := kc.g.build(t, kc.lms).EqualLabels(want); err != nil {
				t.Fatalf("directed=%v %s: %v", directed, dd.name, err)
			}
		}
	}
}
