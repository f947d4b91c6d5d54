package dynhl

import (
	"math/rand"
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/hcl"
)

// TestWeightedLowerBoundAfterRepairs checks the weighted query's landmark
// lower bound (hcl.Core.ALT) on the labelling a Store publishes after every
// op of a stream of inserts and deletes. The stream cuts and restores the
// bridges between three clusters, and the landmarks sit in the first two,
// so many pairs have an endpoint some landmarks do not reach. For sampled
// pairs (u, v), at every vertex x and for t = u and t = v, Lower(x, t)
// must fall in lowerRange's range, whose top is at most d(x, t).
func TestWeightedLowerBoundAfterRepairs(t *testing.T) {
	const clusters, size = 3, 10
	const n = clusters * size
	rng := rand.New(rand.NewSource(43))
	g, ref := NewWeightedGraph(n), NewWeightedGraph(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
		ref.AddVertex()
	}
	add := func(u, v uint32, w Dist) {
		g.MustAddEdge(u, v, w)
		ref.MustAddEdge(u, v, w)
	}
	for c := uint32(0); c < clusters; c++ {
		for i := uint32(0); i < size; i++ {
			add(c*size+i, c*size+(i+1)%size, Dist(1+rng.Intn(8)))
			add(c*size+i, c*size+(i+3)%size, Dist(1+rng.Intn(8)))
		}
	}
	bridges := [][2]uint32{{0, size + 5}, {size, 2*size + 5}}
	for _, b := range bridges {
		add(b[0], b[1], Dist(1+rng.Intn(8)))
	}
	idx, err := BuildWeightedWithLandmarks(g, []uint32{2, 7, size + 2, size + 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(idx)

	dist := make([][]Dist, n)
	for x := range dist {
		dist[x] = make([]Dist, n)
	}
	qs := new(bfs.QuerySpace)
	var partial int
	for step := 0; step < 120; step++ {
		var op Op
		switch r := rng.Intn(10); {
		case r < 4: // toggle a bridge
			b := bridges[rng.Intn(len(bridges))]
			if ref.HasEdge(b[0], b[1]) {
				op = DeleteEdgeOp(b[0], b[1])
			} else {
				op = InsertEdgeOp(b[0], b[1], Dist(1+rng.Intn(8)))
			}
		case r < 7: // delete an edge inside a cluster
			u := uint32(rng.Intn(n))
			nb := ref.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			op = DeleteEdgeOp(u, nb[rng.Intn(len(nb))].To)
		default: // insert an edge inside a cluster
			c := uint32(rng.Intn(clusters)) * size
			u, v := c+uint32(rng.Intn(size)), c+uint32(rng.Intn(size))
			if u == v || ref.HasEdge(u, v) {
				continue
			}
			op = InsertEdgeOp(u, v, Dist(1+rng.Intn(8)))
		}
		if _, err := s.Apply([]Op{op}); err != nil {
			t.Fatalf("step %d: %v: %v", step, op, err)
		}
		if op.Kind == OpDeleteEdge {
			if _, err := ref.RemoveEdge(op.U, op.V); err != nil {
				t.Fatal(err)
			}
		} else {
			ref.MustAddEdge(op.U, op.V, op.W)
		}
		for x := range dist {
			ref.Dijkstra(uint32(x), dist[x])
		}
		c := s.Snapshot().(*view).sn.o.base().core
		for range 30 {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			for _, r := range c.Landmarks {
				if dist[r][u] == graph.Inf || dist[r][v] == graph.Inf {
					partial++
					break
				}
			}
			alt := c.ALT(u, v, qs)
			for x := uint32(0); x < n; x++ {
				for _, end := range []uint32{u, v} {
					lb := alt.Lower(x, end)
					floor, ceil := lowerRange(c, dist, x, end)
					if lb < floor || lb > ceil || lb > dist[x][end] {
						t.Fatalf("step %d (%v): pair (%d,%d): Lower(%d,%d) = %d, want in [%d, %d] and at most the distance %d",
							step, op, u, v, x, end, lb, floor, ceil, dist[x][end])
					}
				}
			}
		}
	}
	if partial == 0 {
		t.Fatal("no sampled pair had an endpoint some landmark misses")
	}
}

// lowerRange returns the range a landmark lower bound on d(x, t) must fall
// in, given the exact distances dist: at least the bound of every entry
// (r, δ) of L(x) whose landmark reaches t, |δ − d(r, t)|, and at most the
// largest |d(r, x) − d(r, t)| over the landmarks r reaching both x and t,
// which is 0 when none does.
func lowerRange(c *hcl.Core, dist [][]Dist, x, t uint32) (floor, ceil Dist) {
	for _, e := range c.Label(0, x) {
		if dt := dist[c.Landmarks[e.Rank]][t]; dt != graph.Inf {
			floor = max(floor, max(e.D, dt)-min(e.D, dt))
		}
	}
	for _, r := range c.Landmarks {
		if dx, dt := dist[r][x], dist[r][t]; dx != graph.Inf && dt != graph.Inf {
			ceil = max(ceil, max(dx, dt)-min(dx, dt))
		}
	}
	return floor, ceil
}
