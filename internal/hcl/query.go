package hcl

import (
	"repro/internal/graph"
)

// UpperBound computes d⊤(u,v), the smallest distance achievable through the
// highway network (Equation 2 of the paper): the minimum over label entry
// pairs of δ_L(u,r_i) + δ_H(r_i,r_j) + δ_L(r_j,v), reading u's backward
// label (its only one on a single-direction labelling) against v's forward
// one. Landmark endpoints are resolved through the highway directly
// (Equation 1).
func (c *Core) UpperBound(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	back := c.kind.Dirs - 1
	ru, uIsL := c.Rank(u)
	rv, vIsL := c.Rank(v)
	switch {
	case uIsL && vIsL:
		return c.Highway(ru, rv)
	case uIsL:
		return c.PassDist(0, ru, v)
	case vIsL:
		return c.PassDist(back, rv, u)
	}
	return c.UpperBoundVia(c.Label(back, u), c.Label(0, v))
}

// UpperBoundVia is the Equation 2 kernel over the core's highway (see
// UpperBoundMat).
func (c *Core) UpperBoundVia(lu, lv []Entry) graph.Dist {
	return UpperBoundMat(c.hw, len(c.Landmarks), lu, lv)
}

// UpperBoundMat is the Equation 2 kernel over two entry spans and a flat
// k×k row-major highway: the minimum of eu.D + δ_H(eu,ev) + ev.D over all
// entry pairs. All three variants share this one inner loop, which streams
// one highway row per outer entry, so a query touches at most two
// contiguous entry streams plus |L(u)| rows. For the
// directed variant lu is the backward label of the source (mat rows are
// indexed by its ranks) and lv the forward label of the target.
func UpperBoundMat(mat []graph.Dist, k int, lu, lv []Entry) graph.Dist {
	best := graph.Inf
	for _, eu := range lu {
		if eu.D >= best {
			continue // every sum through eu is at least eu.D
		}
		row := mat[int(eu.Rank)*k : int(eu.Rank)*k+k]
		for _, ev := range lv {
			t := graph.AddDist(eu.D, graph.AddDist(row[ev.Rank], ev.D))
			if t < best {
				best = t
			}
		}
	}
	return best
}

// LandmarkVia is the Equation 1 kernel: the minimum of δ_H(r, e) + e.D over
// the entry span, with row the highway row of landmark rank r.
func LandmarkVia(row []graph.Dist, lv []Entry) graph.Dist {
	best := graph.Inf
	for _, e := range lv {
		t := graph.AddDist(row[e.Rank], e.D)
		if t < best {
			best = t
		}
	}
	return best
}

// ALTLandmarks is the number of landmarks an ALT bound reads per vertex.
// A sweep of 1–4 on the weighted benchmark graph picked it (EXPERIMENTS.md,
// "goal-directed weighted queries"), and a second sweep kept it once the
// search asked the bound at pop time ("cheaper bounded searches"): each
// added landmark cut the vertices popped per search (4,527, 3,745, 3,589,
// 3,486) by less than its wider pass over L(x) cost, so 1 and 2 were level
// and 3 and 4 slower.
const ALTLandmarks = 2

// ALT is the landmark lower bound of Goldberg & Harrelson ("Computing the
// shortest path: A* search meets graph theory", SODA 2005) for one query
// pair (u, v), read off the labels: Equation 1 gives d(r, x) exactly for
// every landmark r and vertex x, and on an undirected graph
// d(x, t) ≥ |d(r, x) − d(r, t)|. Of the landmarks that reach both u and v,
// it keeps the ALTLandmarks with the largest |d(r, u) − d(r, v)|. It holds
// only on a single-direction labelling, whose distances are symmetric.
type ALT struct {
	c      *Core
	u, v   uint32
	n      int                        // landmarks kept
	rows   [ALTLandmarks][]graph.Dist // their highway rows
	du, dv [ALTLandmarks]graph.Dist   // their distances to u and v
}

// ALT picks the landmarks of the lower bound for the pair (u, v).
func (c *Core) ALT(u, v uint32) ALT {
	a := ALT{c: c, u: u, v: v}
	var gaps [ALTLandmarks]graph.Dist
	for r := range c.Landmarks {
		du, dv := c.PassDist(0, uint16(r), u), c.PassDist(0, uint16(r), v)
		if du == graph.Inf || dv == graph.Inf {
			continue // r misses an endpoint: no gap to read
		}
		gap := absDiff(du, dv)
		if a.n == ALTLandmarks && gap <= gaps[a.n-1] {
			continue
		}
		// Insert r in descending gap order, dropping the smallest when full.
		i := min(a.n, ALTLandmarks-1)
		for ; i > 0 && gaps[i-1] < gap; i-- {
			gaps[i], a.rows[i], a.du[i], a.dv[i] = gaps[i-1], a.rows[i-1], a.du[i-1], a.dv[i-1]
		}
		gaps[i], a.rows[i], a.du[i], a.dv[i] = gap, c.Row(uint16(r)), du, dv
		a.n = min(a.n+1, ALTLandmarks)
	}
	return a
}

// Lower returns a lower bound on d(x, t) for t one of the pair's vertices:
// the largest |d(r, x) − d(r, t)| over the kept landmarks r, each d(r, x)
// read by Equation 1 from L(x) against r's highway row. One pass over L(x)
// takes the minimum for every kept landmark at once. A landmark that does
// not reach x adds nothing, and neither does a landmark x, whose label is
// empty, so the bound is finite.
func (a *ALT) Lower(x, t uint32) graph.Dist {
	dt := &a.dv
	if t == a.u {
		dt = &a.du
	}
	var dx [ALTLandmarks]graph.Dist
	for j := range dx {
		dx[j] = graph.Inf
	}
	rows := a.rows[:a.n]
	for _, e := range a.c.Label(0, x) {
		for j, row := range rows {
			dx[j] = min(dx[j], graph.AddDist(row[e.Rank], e.D))
		}
	}
	var lb graph.Dist
	for j := range rows {
		if dx[j] != graph.Inf {
			lb = max(lb, absDiff(dx[j], dt[j]))
		}
	}
	return lb
}

// absDiff returns |a − b|.
func absDiff(a, b graph.Dist) graph.Dist {
	if a > b {
		return a - b
	}
	return b - a
}
