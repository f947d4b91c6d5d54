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
		return idx.H.Dist(ru, rv)
	case uIsL:
		return idx.landmarkToVertex(ru, v)
	case vIsL:
		return idx.landmarkToVertex(rv, u)
	}
	return UpperBoundVia(idx.H, idx.label(u), idx.label(v))
}

// UpperBoundVia is the Equation 2 kernel over two entry spans: the minimum
// of eu.D + δ_H(eu,ev) + ev.D over all entry pairs. It is shared by the
// packed and slice read paths (spans of the arena or whole labels — the
// layouts are identical) and streams one highway row per outer entry, so a
// query touches at most two contiguous entry streams plus |L(u)| rows.
func UpperBoundVia(h *Highway, lu, lv []Entry) graph.Dist {
	return UpperBoundMat(h.mat, h.k, lu, lv)
}

// UpperBoundMat is the same kernel over a flat k×k row-major distance
// matrix — the form the directed and weighted variants store their highways
// in, so all three share this one inner loop. For the directed variant lu
// is the backward label of the source (mat rows are indexed by its ranks)
// and lv the forward label of the target.
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

// landmarkToVertex evaluates Equation 1: d_G(r, v) for landmark rank r and
// non-landmark v, via v's label and the highway.
func (idx *Index) landmarkToVertex(r uint16, v uint32) graph.Dist {
	return LandmarkVia(idx.H.Row(r), idx.label(v))
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
func (idx *Index) LandmarkDist(r uint16, v uint32) graph.Dist {
	if s, ok := idx.Rank(v); ok {
		return idx.H.Dist(r, s)
	}
	return idx.landmarkToVertex(r, v)
}

// Query answers an exact distance query Q(u,v,Γ): it computes the highway
// upper bound d⊤ and then runs a d⊤-bounded bidirectional BFS over the
// landmark-sparsified graph G[V\R]; the smaller of the two is the exact
// distance (Section 3 of the paper).
func (idx *Index) Query(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	top := idx.UpperBound(u, v)
	if top <= 1 {
		// Either the vertices are adjacent through a landmark path of
		// length 1 (impossible for distinct non-landmarks, so this is a
		// landmark endpoint case) — no shorter path can exist.
		return top
	}
	if _, uIsL := idx.Rank(u); uIsL {
		return top // Equation 1 is already exact for landmark endpoints
	}
	if _, vIsL := idx.Rank(v); vIsL {
		return top
	}
	s := bfs.Spaces.Get(idx.G.NumVertices())
	sp := bfs.Sparsified(idx.G, u, v, top, idx.IsLandmark, s)
	bfs.Spaces.Put(s)
	if sp < top {
		return sp
	}
	return top
}
