package whcl

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// Stats reports what one weighted update did. The variant counts no
// affected union: AffectedSum is its affected-vertex figure.
type Stats = hcl.Stats

// findResult carries one landmark's affected set from find to repair.
type findResult struct {
	skipped  bool                  // landmark eliminated: the edge shortens nothing
	affected []wgraph.Item         // settle order: non-decreasing new distance
	newDist  map[uint32]graph.Dist // affected vertex -> new distance
	oldDist  map[uint32]graph.Dist // scanned vertex -> old distance
}

// InsertEdge inserts the weighted edge (a,b,w) and repairs the labelling:
// per landmark a jumped Dijkstra from the far endpoint collects vertices
// whose shortest path to the landmark now runs through the new edge, then a
// settle-order pass applies the covered/uncovered classification. The
// per-landmark tasks fan across Workers cores — every find runs against the
// pre-update labelling (no repair has mutated anything yet: tasks only
// buffer deltas) — and the merge applies the deltas in rank order.
func (idx *Index) InsertEdge(a, b uint32, w graph.Dist) (Stats, error) {
	var st Stats
	g := idx.G
	if err := CheckInsert(g, a, b, w); err != nil {
		return st, err
	}
	if _, err := g.AddEdge(a, b, w); err != nil {
		return st, err
	}
	st.LandmarksTotal = idx.NumLandmarks()

	finds := make([]findResult, idx.NumLandmarks())
	ds := make([]hcl.Delta, len(finds))
	for r := range ds {
		ds[r].Rank = uint16(r)
	}
	hcl.Repair(&idx.Core, &scratches, ds, false, func(ws *scratch, r int, d *hcl.Delta) {
		fr, ok := idx.findAffected(&ws.pq, d.Rank, a, b, w)
		fr.skipped = !ok
		finds[r] = fr
		if ok {
			idx.classifyAffected(&finds[r], d)
		}
	})
	for r := range finds {
		if finds[r].skipped {
			st.LandmarksSkipped++
			continue
		}
		st.AffectedSum += len(finds[r].affected)
		st.Add(ds[r].Changes())
	}
	return st, nil
}

// InsertVertex adds a new vertex with the given initial weighted edges.
func (idx *Index) InsertVertex(arcs []wgraph.Arc) (uint32, Stats, error) {
	var agg Stats
	if err := CheckNeighbors(idx.G, arcs); err != nil {
		return 0, agg, err
	}
	v := idx.G.AddVertex()
	idx.EnsureVertex(v)
	agg.LandmarksTotal = idx.NumLandmarks()
	for _, a := range arcs {
		st, err := idx.InsertEdge(v, a.To, a.W)
		if err != nil {
			return v, agg, err
		}
		agg.Plus(st)
	}
	return v, agg, nil
}

// CheckInsert is InsertEdge's validity check: (a,b) must join two
// vertices of g and not be an edge yet, and the graph must be able to hold
// it (wgraph.CheckArc: no self-loop, weight in range). Batch validation
// runs it on a view of the graph with the batch's earlier edits applied,
// so a batch is judged by exactly the checks its repair would run.
func CheckInsert(g graph.EdgeSet, a, b uint32, w graph.Dist) error {
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return fmt.Errorf("whcl: insert (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if g.HasEdge(a, b) {
		return fmt.Errorf("whcl: insert (%d,%d): %w", a, b, graph.ErrEdgeExists)
	}
	return wgraph.CheckArc(a, b, w)
}

// CheckNeighbors is InsertVertex's check of the neighbour list: every
// neighbour must be a vertex of g. The edges to the new vertex are then
// checked one by one, by CheckInsert.
func CheckNeighbors(g graph.EdgeSet, arcs []wgraph.Arc) error {
	for _, a := range arcs {
		if !g.HasVertex(a.To) {
			return fmt.Errorf("whcl: insert vertex: neighbour %d: %w", a.To, graph.ErrVertexUnknown)
		}
	}
	return nil
}

// findAffected runs the jumped Dijkstra of one landmark on the worker's
// queue pq. The new candidate distance of the far endpoint is
// d(r, near) + w; a vertex is affected iff its old distance is at least its
// best new through-edge distance.
func (idx *Index) findAffected(pq *wgraph.PQ, r uint16, a, b uint32, w graph.Dist) (findResult, bool) {
	da := idx.LandmarkDist(r, a)
	db := idx.LandmarkDist(r, b)
	if db < da {
		a, b = b, a
		da, db = db, da
	}
	if da == graph.Inf {
		return findResult{}, false // the edge is unreachable from r
	}
	cand := graph.AddDist(da, w)
	if cand > db {
		return findResult{}, false // Λ_r = ∅: no shortest path can use (a,b)
	}
	fr := findResult{
		newDist: make(map[uint32]graph.Dist, 16),
		oldDist: make(map[uint32]graph.Dist, 32),
	}
	fr.oldDist[a] = da
	fr.oldDist[b] = db
	cache := func(v uint32) graph.Dist {
		if d, ok := fr.oldDist[v]; ok {
			return d
		}
		d := idx.LandmarkDist(r, v)
		fr.oldDist[v] = d
		return d
	}
	pq.Reset()
	fr.newDist[b] = cand
	pq.PushItem(wgraph.Item{V: b, D: cand})
	for pq.Len() > 0 {
		it := pq.PopItem()
		if fr.newDist[it.V] != it.D {
			continue // stale queue entry
		}
		fr.affected = append(fr.affected, it)
		for _, arc := range idx.G.Neighbors(it.V) {
			nd := graph.AddDist(it.D, arc.W)
			if cur, seen := fr.newDist[arc.To]; seen && cur <= nd {
				continue
			}
			if cache(arc.To) >= nd {
				fr.newDist[arc.To] = nd
				pq.PushItem(wgraph.Item{V: arc.To, D: nd})
			}
		}
	}
	return fr, true
}

// classifyAffected walks Λ_r in settle order and applies Lemma 4.6: a vertex
// is covered iff it is a landmark or some shortest-path parent (neighbour u
// with newdist(u) + w(u,v) = newdist(v)) is a landmark other than r or
// covered itself. Edits are buffered into the delta; entry checks read the
// frozen pre-repair labelling and are exact because only rank r ever touches
// r-entries, and insertion highway cells apply unconditionally.
func (idx *Index) classifyAffected(fr *findResult, d *hcl.Delta) {
	r := d.Rank
	root := idx.Landmarks[r]
	covered := make(map[uint32]bool, len(fr.affected))
	for _, it := range fr.affected {
		v, dd := it.V, it.D
		if s, isL := idx.Rank(v); isL {
			d.Cell(s, dd)
			covered[v] = true
			continue
		}
		cov := false
		for _, arc := range idx.G.Neighbors(v) {
			n := arc.To
			nd, affected := fr.newDist[n]
			if !affected {
				var ok bool
				nd, ok = fr.oldDist[n]
				if !ok {
					continue
				}
			}
			if graph.AddDist(nd, arc.W) != dd {
				continue // not a shortest-path parent
			}
			if affected {
				if covered[n] {
					cov = true
					break
				}
				continue
			}
			if idx.IsLandmark(n) {
				if n != root {
					cov = true
					break
				}
				continue
			}
			if _, has := idx.Entry(0, n, r); !has {
				cov = true
				break
			}
		}
		covered[v] = cov
		if !cov {
			d.Set(v, dd)
		} else if _, has := idx.Entry(0, v, r); has {
			d.Remove(v)
		}
	}
}
