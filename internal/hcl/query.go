package hcl

import (
	"repro/internal/bfs"
	"repro/internal/graph"
)

// UpperBound computes d⊤(u,v), the smallest distance achievable through the
// highway network (Equation 2 of the paper): the minimum over label entry
// pairs of δ_L(r_i,u) + δ_H(r_i,r_j) + δ_L(r_j,v). Landmark endpoints are
// resolved through the highway directly (Equation 1).
func (idx *Index) UpperBound(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	ru, uIsL := idx.Rank(u)
	rv, vIsL := idx.Rank(v)
	switch {
	case uIsL && vIsL:
		return idx.Highway(ru, rv)
	case uIsL:
		return LandmarkVia(idx.Row(ru), idx.Label(0, v))
	case vIsL:
		return LandmarkVia(idx.Row(rv), idx.Label(0, u))
	}
	return idx.UpperBoundVia(idx.Label(0, u), idx.Label(0, v))
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

// LandmarkDist returns d_G(r, v) for landmark rank r and any vertex v,
// exactly, using the highway for landmark v and Equation 1 otherwise. This
// is the Q(r, ·, Γ) primitive that drives Algorithm 2 of IncHL+.
func (idx *Index) LandmarkDist(r uint16, v uint32) graph.Dist { return idx.PassDist(0, r, v) }

// Query answers an exact distance query Q(u,v,Γ): it computes the highway
// upper bound d⊤ and then runs a bidirectional BFS over the
// landmark-sparsified graph G[V\R] for a path shorter than d⊤; the smaller
// of the two is the exact distance (Section 3 of the paper).
func (idx *Index) Query(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	top := idx.UpperBound(u, v)
	if top <= 1 {
		// Two distinct non-landmarks are each at least 1 from every label
		// landmark, so their d⊤ is at least 2: d⊤ ≤ 1 means a landmark
		// endpoint, whose Equation 1 bound is exact.
		return top
	}
	if _, uIsL := idx.Rank(u); uIsL {
		return top // Equation 1 is already exact for landmark endpoints
	}
	if _, vIsL := idx.Rank(v); vIsL {
		return top
	}
	s := bfs.Spaces.Get(idx.G.NumVertices())
	sp := bfs.Sparsified(idx.G, u, v, top, idx.IsLandmark, s) // below top, or Inf
	bfs.Spaces.Put(s)
	return min(sp, top)
}
