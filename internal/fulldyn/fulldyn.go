// Package fulldyn implements the IncFD baseline (Hayashi, Akiba,
// Kawarabayashi; CIKM 2016): a small set of landmarks, one complete
// shortest-path tree per landmark, queries answered by a landmark upper
// bound plus a bounded bidirectional search on the landmark-sparsified
// graph, and incremental updates that propagate distance decreases through
// each tree.
//
// Faithful to the original fully dynamic system, each tree stores not only
// distances but the shortest-path DAG parent lists of every vertex — the
// structure its deletion support requires — and the insertion path keeps
// those parent lists consistent (Ramalingam–Reps-style structural
// maintenance). Storing and maintaining complete trees is what makes the
// IncFD labelling several times larger than highway cover labelling and its
// updates slower (Section 6.1 of Farhan & Wang, EDBT 2021).
package fulldyn

import (
	"fmt"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/queue"
)

// Index is the IncFD structure. It is not safe for concurrent use.
type Index struct {
	G         *graph.Graph
	Landmarks []uint32
	Dist      [][]graph.Dist // Dist[r][v] = d_G(landmark r, v)
	Parents   [][][]uint32   // Parents[r][v] = shortest-path DAG parents of v in tree r

	isLandmark map[uint32]bool

	// update scratch
	q        queue.PairQueue
	improved []uint32
}

// Build computes the shortest-path tree of every landmark.
func Build(g *graph.Graph, landmarks []uint32) (*Index, error) {
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("fulldyn: need at least one landmark")
	}
	idx := &Index{
		G:          g,
		Landmarks:  append([]uint32(nil), landmarks...),
		Dist:       make([][]graph.Dist, len(landmarks)),
		Parents:    make([][][]uint32, len(landmarks)),
		isLandmark: make(map[uint32]bool, len(landmarks)),
	}
	for r, v := range idx.Landmarks {
		if !g.HasVertex(v) {
			return nil, fmt.Errorf("fulldyn: landmark %d is not a vertex of the graph", v)
		}
		idx.isLandmark[v] = true
		idx.Dist[r] = bfs.Distances(g, v)
		idx.Parents[r] = make([][]uint32, g.NumVertices())
		for w := 0; w < g.NumVertices(); w++ {
			idx.rebuildParents(r, uint32(w))
		}
	}
	return idx, nil
}

// rebuildParents recomputes the parent list of w in tree r from current
// distances.
func (idx *Index) rebuildParents(r int, w uint32) {
	dw := idx.Dist[r][w]
	ps := idx.Parents[r][w][:0]
	if dw != graph.Inf && dw != 0 {
		for _, u := range idx.G.Neighbors(w) {
			if graph.AddDist(idx.Dist[r][u], 1) == dw {
				ps = append(ps, u)
			}
		}
	}
	idx.Parents[r][w] = ps
}

// UpperBound returns min over landmarks of d(r,u) + d(r,v).
func (idx *Index) UpperBound(u, v uint32) graph.Dist {
	best := graph.Inf
	for r := range idx.Landmarks {
		if t := graph.AddDist(idx.Dist[r][u], idx.Dist[r][v]); t < best {
			best = t
		}
	}
	return best
}

// Query answers an exact distance query: the landmark upper bound, refined
// by a bounded bidirectional BFS over the sparsified graph.
func (idx *Index) Query(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	top := idx.UpperBound(u, v)
	if idx.isLandmark[u] || idx.isLandmark[v] {
		return top // the landmark's own tree answers exactly
	}
	if top <= 1 {
		return top
	}
	avoid := func(x uint32) bool { return idx.isLandmark[x] }
	s := bfs.Spaces.Get(idx.G.NumVertices())
	sp := bfs.Sparsified(idx.G, u, v, top, avoid, s) // below top, or Inf
	bfs.Spaces.Put(s)
	return min(sp, top)
}

// InsertEdge inserts (a,b) and maintains every landmark tree: distances are
// decreased with a partial BFS and the shortest-path DAG parent lists of
// every touched vertex (and of the unchanged children on the repair
// frontier) are rebuilt.
func (idx *Index) InsertEdge(a, b uint32) error {
	g := idx.G
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return fmt.Errorf("fulldyn: insert (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return fmt.Errorf("fulldyn: insert (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if g.HasEdge(a, b) {
		return fmt.Errorf("fulldyn: insert (%d,%d): %w", a, b, graph.ErrEdgeExists)
	}
	if _, err := g.AddEdge(a, b); err != nil {
		return err
	}
	for r := range idx.Landmarks {
		idx.updateTree(r, a, b)
	}
	return nil
}

// updateTree repairs tree r after inserting (a,b).
func (idx *Index) updateTree(r int, a, b uint32) {
	dist := idx.Dist[r]
	x, y := a, b
	if dist[y] < dist[x] {
		x, y = y, x
	}
	nd := graph.AddDist(dist[x], 1)
	switch {
	case nd == graph.Inf && dist[y] == graph.Inf:
		return // both endpoints unreachable from the landmark
	case nd > dist[y]:
		return // tree unchanged (equal endpoint distances)
	case nd == dist[y]:
		// y gains x as an additional shortest-path parent.
		idx.Parents[r][y] = append(idx.Parents[r][y], x)
		return
	}
	// Strict improvement: decrease distances below y with a partial BFS.
	idx.improved = idx.improved[:0]
	idx.q.Reset()
	dist[y] = nd
	idx.q.Push(queue.Pair{V: y, D: nd})
	idx.improved = append(idx.improved, y)
	for !idx.q.Empty() {
		p := idx.q.Pop()
		next := p.D + 1
		for _, w := range idx.G.Neighbors(p.V) {
			if next < dist[w] {
				dist[w] = next
				idx.q.Push(queue.Pair{V: w, D: next})
				idx.improved = append(idx.improved, w)
			}
		}
	}
	// Structural repair: improved vertices get fresh parent lists, and so
	// do their unchanged children on the frontier (an improved parent may
	// have entered or left their parent sets).
	for _, w := range idx.improved {
		idx.rebuildParents(r, w)
	}
	for _, w := range idx.improved {
		dw := dist[w]
		for _, z := range idx.G.Neighbors(w) {
			if dist[z] == dw+1 {
				idx.rebuildParents(r, z)
			}
		}
	}
}

// DeleteEdge removes (a,b) and maintains every landmark tree — the
// deletion support the parent-DAG machinery exists for. Per tree: an edge
// whose endpoints sit at equal depth is not in the shortest-path DAG and
// changes nothing; otherwise the deeper endpoint loses the shallower one
// from its parent list, and only when that list empties (the vertex lost
// its last shortest path) do distances actually change, in which case the
// tree below is recomputed from the landmark.
func (idx *Index) DeleteEdge(a, b uint32) error {
	g := idx.G
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return fmt.Errorf("fulldyn: delete (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return fmt.Errorf("fulldyn: delete (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if !g.HasEdge(a, b) {
		return fmt.Errorf("fulldyn: delete (%d,%d): %w", a, b, graph.ErrEdgeUnknown)
	}
	if err := g.RemoveEdge(a, b); err != nil {
		return err
	}
	for r := range idx.Landmarks {
		idx.deleteFromTree(r, a, b)
	}
	return nil
}

// deleteFromTree repairs tree r after the edge (a,b) was already removed
// from the graph; distances in idx.Dist[r] are still the pre-delete ones.
func (idx *Index) deleteFromTree(r int, a, b uint32) {
	dist := idx.Dist[r]
	x, y := a, b // x the shallower endpoint, y the deeper
	if dist[y] < dist[x] {
		x, y = y, x
	}
	if dist[x] == graph.Inf || dist[x] == dist[y] {
		return // unreachable edge, or not on the shortest-path DAG
	}
	// y loses x as a shortest-path parent.
	ps := idx.Parents[r][y]
	for i, p := range ps {
		if p == x {
			ps[i] = ps[len(ps)-1]
			idx.Parents[r][y] = ps[:len(ps)-1]
			break
		}
	}
	if len(idx.Parents[r][y]) > 0 {
		return // another shortest path survives; no distance changed
	}
	// y lost its last shortest path: recompute the tree. (Distance increases
	// cascade arbitrarily far and can disconnect whole regions, so the
	// decremental repair is a fresh BFS from the landmark.)
	idx.Dist[r] = bfs.Distances(idx.G, idx.Landmarks[r])
	for w := 0; w < idx.G.NumVertices(); w++ {
		idx.rebuildParents(r, uint32(w))
	}
}

// InsertVertex adds a vertex with the given neighbours, growing every tree.
func (idx *Index) InsertVertex(neighbors []uint32) (uint32, error) {
	v := idx.G.AddVertex()
	for r := range idx.Dist {
		idx.Dist[r] = append(idx.Dist[r], graph.Inf)
		idx.Parents[r] = append(idx.Parents[r], nil)
	}
	for _, w := range neighbors {
		if err := idx.InsertEdge(v, w); err != nil {
			return v, err
		}
	}
	return v, nil
}

// Bytes returns the storage charged for the complete shortest-path trees: a
// 4-byte distance per landmark per vertex plus 4 bytes per stored parent
// edge.
func (idx *Index) Bytes() int64 {
	total := int64(len(idx.Landmarks)) * int64(idx.G.NumVertices()) * 4
	for r := range idx.Parents {
		for _, ps := range idx.Parents[r] {
			total += int64(len(ps)) * 4
		}
	}
	return total
}

// VerifyTrees checks distances and parent lists against ground truth BFS;
// it is O(|R|·|E|) and intended for tests.
func (idx *Index) VerifyTrees() error {
	for r, lv := range idx.Landmarks {
		want := bfs.Distances(idx.G, lv)
		for v := 0; v < idx.G.NumVertices(); v++ {
			if idx.Dist[r][v] != want[v] {
				return fmt.Errorf("fulldyn: tree %d: dist[%d] = %d, want %d", r, v, idx.Dist[r][v], want[v])
			}
		}
		for v := 0; v < idx.G.NumVertices(); v++ {
			wantPs := map[uint32]bool{}
			if want[v] != 0 && want[v] != graph.Inf {
				for _, u := range idx.G.Neighbors(uint32(v)) {
					if graph.AddDist(want[u], 1) == want[v] {
						wantPs[u] = true
					}
				}
			}
			if len(wantPs) != len(idx.Parents[r][v]) {
				return fmt.Errorf("fulldyn: tree %d: vertex %d has %d parents, want %d",
					r, v, len(idx.Parents[r][v]), len(wantPs))
			}
			for _, u := range idx.Parents[r][v] {
				if !wantPs[u] {
					return fmt.Errorf("fulldyn: tree %d: vertex %d has wrong parent %d", r, v, u)
				}
			}
		}
	}
	return nil
}
