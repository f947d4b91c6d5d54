package dhcl

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/queue"
)

// Stats reports what one directed insertion did.
type Stats struct {
	LandmarksTotal  int // |R|
	PassesSkipped   int // forward/backward passes eliminated (of 2|R|)
	AffectedForward int // Σ_r |Λ_r| over forward passes
	AffectedBack    int // Σ_r |Λ_r| over backward passes
	EntriesAdded    int
	EntriesRemoved  int
	HighwayUpdates  int
}

// add counts one merged delta's edits.
func (st *Stats) add(ch hcl.Changes) {
	st.EntriesAdded += ch.Added
	st.EntriesRemoved += ch.Removed
	st.HighwayUpdates += ch.Highway
}

// plus aggregates the counters of a component update.
func (st *Stats) plus(o Stats) {
	st.PassesSkipped += o.PassesSkipped
	st.AffectedForward += o.AffectedForward
	st.AffectedBack += o.AffectedBack
	st.EntriesAdded += o.EntriesAdded
	st.EntriesRemoved += o.EntriesRemoved
	st.HighwayUpdates += o.HighwayUpdates
}

// affected charges n repaired vertices to the counter of direction dir.
func (st *Stats) affected(dir, n int) {
	if dir == fwd {
		st.AffectedForward += n
	} else {
		st.AffectedBack += n
	}
}

// findResult carries one pass's affected set from find to repair.
type findResult struct {
	skipped  bool                  // pass eliminated: the edge shortens nothing
	affected []queue.Pair          // level order, depth = new distance
	newDist  map[uint32]graph.Dist // affected vertex -> new distance
	oldDist  map[uint32]graph.Dist // scanned vertex -> old distance
}

// InsertEdge inserts the directed edge a→b and repairs both label sets:
// forward distances can only change downstream of b, backward distances
// only upstream of a (the directed analogue of Lemma 4.3). The 2|R|
// (landmark, direction) passes fan across Workers cores — each task runs
// its find against the pre-update labelling (no repair has mutated anything
// yet: tasks only buffer deltas) plus the repair classification — and the
// merge applies the deltas in serial pass order, forward before backward
// per rank.
func (idx *Index) InsertEdge(a, b uint32) (Stats, error) {
	var st Stats
	g := idx.G
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return st, fmt.Errorf("dhcl: insert (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return st, fmt.Errorf("dhcl: insert (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if g.HasEdge(a, b) {
		return st, fmt.Errorf("dhcl: insert (%d,%d): %w", a, b, graph.ErrEdgeExists)
	}
	if _, err := g.AddEdge(a, b); err != nil {
		return st, err
	}
	st.LandmarksTotal = idx.NumLandmarks()

	finds := make([]findResult, 2*idx.NumLandmarks())
	ds := make([]hcl.Delta, len(finds))
	for t := range ds {
		ds[t] = hcl.Delta{Rank: uint16(t / 2), Dir: t % 2}
	}
	hcl.Repair(&idx.Core, &hcl.Scratches, ds, false, func(_ *hcl.Scratch, t int, d *hcl.Delta) {
		fr, ok := idx.findAffected(d.Rank, d.Dir, a, b)
		fr.skipped = !ok
		finds[t] = fr
		if ok {
			idx.classifyPass(&finds[t], d)
		}
	})
	for t := range finds {
		if finds[t].skipped {
			st.PassesSkipped++
			continue
		}
		st.affected(ds[t].Dir, len(finds[t].affected))
		st.add(ds[t].Changes())
	}
	return st, nil
}

// InsertVertex adds a new vertex with the given initial out- and
// in-neighbours, applied as sequential edge insertions.
func (idx *Index) InsertVertex(outTo, inFrom []uint32) (uint32, Stats, error) {
	var agg Stats
	for _, w := range outTo {
		if !idx.G.HasVertex(w) {
			return 0, agg, fmt.Errorf("dhcl: insert vertex: neighbour %d: %w", w, graph.ErrVertexUnknown)
		}
	}
	for _, w := range inFrom {
		if !idx.G.HasVertex(w) {
			return 0, agg, fmt.Errorf("dhcl: insert vertex: neighbour %d: %w", w, graph.ErrVertexUnknown)
		}
	}
	v := idx.G.AddVertex()
	idx.EnsureVertex(v)
	agg.LandmarksTotal = idx.NumLandmarks()
	add := func(x, y uint32) error {
		st, err := idx.InsertEdge(x, y)
		if err == nil {
			agg.plus(st)
		}
		return err
	}
	for _, w := range outTo {
		if err := add(v, w); err != nil {
			return v, agg, err
		}
	}
	for _, w := range inFrom {
		if err := add(w, v); err != nil {
			return v, agg, err
		}
	}
	return v, agg, nil
}

// findAffected runs the jumped BFS of one (landmark, direction) pass. For a
// forward pass the new path is r→…→a→b, so the search starts at b over
// out-edges with depth d(r→a)+1; backward passes mirror this from a over
// in-edges with depth d(b→r)+1. It reports ok=false when the pass is
// eliminated (the new edge cannot lie on any shortest path to/from r).
func (idx *Index) findAffected(r uint16, dir int, a, b uint32) (findResult, bool) {
	var dNear, dStart graph.Dist
	var start uint32
	var frontier, parents func(uint32) []uint32
	var oldDist func(uint32) graph.Dist
	if dir == fwd {
		dNear = idx.DistF(r, a)  // distance to the edge tail
		dStart = idx.DistF(r, b) // current distance of the search start
		start = b                // new paths enter through b
		frontier = idx.G.Out     // expand along out-edges
		parents = idx.G.In       // shortest-path parents are in-neighbours
		oldDist = func(v uint32) graph.Dist { return idx.DistF(r, v) }
	} else {
		dNear = idx.DistB(r, b)
		dStart = idx.DistB(r, a)
		start = a
		frontier = idx.G.In
		parents = idx.G.Out
		oldDist = func(v uint32) graph.Dist { return idx.DistB(r, v) }
	}
	if dNear == graph.Inf {
		return findResult{}, false // no path reaches the new edge
	}
	pi := dNear + 1
	if dStart < pi {
		return findResult{}, false // the new edge shortens nothing (Λ = ∅)
	}
	fr := findResult{
		newDist: make(map[uint32]graph.Dist, 16),
		oldDist: make(map[uint32]graph.Dist, 32),
	}
	cache := func(v uint32) graph.Dist {
		if d, ok := fr.oldDist[v]; ok {
			return d
		}
		d := oldDist(v)
		fr.oldDist[v] = d
		return d
	}
	if dir == fwd {
		fr.oldDist[a] = dNear
	} else {
		fr.oldDist[b] = dNear
	}
	fr.oldDist[start] = dStart

	q := queue.NewPairQueue(16)
	q.Push(queue.Pair{V: start, D: pi})
	fr.newDist[start] = pi
	for !q.Empty() {
		p := q.Pop()
		fr.affected = append(fr.affected, p)
		next := graph.AddDist(p.D, 1)
		for _, w := range frontier(p.V) {
			if _, seen := fr.newDist[w]; seen {
				continue
			}
			if cache(w) >= next {
				fr.newDist[w] = next
				q.Push(queue.Pair{V: w, D: next})
			}
		}
		// Repair classifies through shortest-path parents, which lie on the
		// opposite adjacency — cache their old distances now, while the
		// labelling still reflects the old graph.
		for _, w := range parents(p.V) {
			if _, seen := fr.newDist[w]; !seen {
				cache(w)
			}
		}
	}
	return fr, true
}

// classifyPass walks one pass's affected set in level order and applies the
// covered/uncovered classification of Lemma 4.6 in the pass direction,
// buffering edits into the delta. Entry checks read the frozen pre-repair
// labelling and are exact: only this pass touches rank-r entries of its
// direction, and highway cells of an insertion apply unconditionally.
func (idx *Index) classifyPass(fr *findResult, d *hcl.Delta) {
	r := d.Rank
	root := idx.Landmarks[r]
	parents := idx.G.Out
	if d.Dir == fwd {
		parents = idx.G.In
	}
	covered := make(map[uint32]bool, len(fr.affected))
	for _, p := range fr.affected {
		w, dd := p.V, p.D
		if s, isL := idx.Rank(w); isL {
			d.Cell(s, dd) // d(r→s) decreased on forward passes, d(s→r) on backward
			covered[w] = true
			continue
		}
		cov := false
		for _, n := range parents(w) {
			nd, affected := fr.newDist[n]
			if !affected {
				var ok bool
				nd, ok = fr.oldDist[n]
				if !ok {
					continue
				}
			}
			if nd != dd-1 {
				continue
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
			if _, has := idx.Entry(d.Dir, n, r); !has {
				cov = true
				break
			}
		}
		covered[w] = cov
		if !cov {
			d.Set(w, dd)
		} else if _, had := idx.Entry(d.Dir, w, r); had {
			d.Remove(w)
		}
	}
}
