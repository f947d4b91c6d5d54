package hcl

import (
	"repro/internal/bfs"
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

// ALT is the landmark lower bound of Goldberg & Harrelson ("Computing the
// shortest path: A* search meets graph theory", SODA 2005) for one query
// pair (u, v), read off the labels. On an undirected graph
// d(x, t) ≥ |d(r, x) − d(r, t)| for every landmark r, and every entry
// (r, δ) of L(x) is an exact distance, δ = d(r, x). So the bound at x is one
// pass over L(x) against a table of d(r, u) and d(r, v), which ALT fills
// once per query by Equation 1. It holds only on a single-direction
// labelling, whose distances are symmetric.
type ALT struct {
	c   *Core
	u   uint32
	tab [][2]graph.Dist // per landmark rank r: d(r, u), d(r, v)
}

// ALT fills the table of the bound for the pair (u, v) into qs.Bounds,
// which it grows to one row per landmark.
func (c *Core) ALT(u, v uint32, qs *bfs.QuerySpace) ALT {
	k := len(c.Landmarks)
	if cap(qs.Bounds) < k {
		qs.Bounds = make([][2]graph.Dist, k)
	}
	a := ALT{c: c, u: u, tab: qs.Bounds[:k]}
	for r := range a.tab {
		a.tab[r] = [2]graph.Dist{c.PassDist(0, uint16(r), u), c.PassDist(0, uint16(r), v)}
	}
	return a
}

// Lower returns a lower bound on d(x, t) for t one of the pair's vertices:
// the largest |δ − d(r, t)| over the entries (r, δ) of L(x) whose landmark
// r reaches t. A landmark x, whose label is empty, gets 0.
func (a *ALT) Lower(x, t uint32) graph.Dist {
	side := 1
	if t == a.u {
		side = 0
	}
	var lb graph.Dist
	for _, e := range a.c.Label(0, x) {
		if d := a.tab[e.Rank][side]; d != graph.Inf {
			lb = max(lb, absDiff(e.D, d))
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
