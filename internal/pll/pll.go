// Package pll implements pruned landmark labelling (Akiba, Iwata, Yoshida;
// SIGMOD 2013) — a full 2-hop cover distance labelling — together with the
// incremental update algorithm of their follow-up work (WWW 2014), the
// IncPLL baseline of the IncHL+ paper. Faithful to that baseline, the
// incremental update only adds or modifies entries and never removes
// outdated or redundant ones, so the labelling loses minimality and grows
// as the graph is updated (Section 6.1.2 of Farhan & Wang).
package pll

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/queue"
)

// Entry is one 2-hop label entry: a hub (identified by its rank in the
// degree-descending vertex order) and the exact distance to it at
// construction time. After incremental updates an entry's distance may be
// stale (an upper bound); queries remain exact because every shortened pair
// gains fresh entries.
type Entry struct {
	Hub uint32     // hub rank
	D   graph.Dist // distance to the hub (exact at insertion time)
}

// EntryBytes is the storage charged per label entry (4-byte hub + 4-byte
// distance), matching common compact PLL encodings.
const EntryBytes = 8

// Index is a pruned landmark labelling over a graph.
// It is not safe for concurrent use.
type Index struct {
	G     *graph.Graph
	Order []uint32 // rank -> vertex, degree descending
	Rank  []uint32 // vertex -> rank
	L     [][]Entry

	// scratch
	tmpDist []graph.Dist
	q       queue.FIFO[queue.Pair]
}

// Build constructs the labelling with one pruned BFS per vertex in
// degree-descending order.
func Build(g *graph.Graph) *Index {
	n := g.NumVertices()
	idx := &Index{
		G:     g,
		Order: make([]uint32, n),
		Rank:  make([]uint32, n),
		L:     make([][]Entry, n),
	}
	for i := range idx.Order {
		idx.Order[i] = uint32(i)
	}
	sort.Slice(idx.Order, func(i, j int) bool {
		di, dj := g.Degree(idx.Order[i]), g.Degree(idx.Order[j])
		if di != dj {
			return di > dj
		}
		return idx.Order[i] < idx.Order[j]
	})
	for r, v := range idx.Order {
		idx.Rank[v] = uint32(r)
	}
	idx.tmpDist = make([]graph.Dist, n)
	for i := range idx.tmpDist {
		idx.tmpDist[i] = graph.Inf
	}
	visited := make([]bool, n)
	var order []uint32
	for r := 0; r < n; r++ {
		root := idx.Order[r]
		order = order[:0]
		idx.q.Reset()
		idx.q.Push(queue.Pair{V: root, D: 0})
		visited[root] = true
		order = append(order, root)
		for !idx.q.Empty() {
			p := idx.q.Pop()
			if idx.queryWithTmp(uint32(r), p.V) <= p.D {
				continue // pruned: already covered by higher-ranked hubs
			}
			idx.L[p.V] = append(idx.L[p.V], Entry{Hub: uint32(r), D: p.D})
			for _, w := range idx.G.Neighbors(p.V) {
				if !visited[w] {
					visited[w] = true
					order = append(order, w)
					idx.q.Push(queue.Pair{V: w, D: p.D + 1})
				}
			}
		}
		for _, v := range order {
			visited[v] = false
		}
	}
	return idx
}

// queryWithTmp returns the 2-hop distance between hub rank r's vertex and v
// using the labels built so far. Because every already-processed hub h with
// rank < r has its entry in L(root) only implicitly (the root's own label is
// also under construction), the standard trick applies: d(root, v) =
// min over entries (h,d) of L(v) with a matching entry in L(root), plus the
// in-progress entries of L(root) itself.
func (idx *Index) queryWithTmp(r uint32, v uint32) graph.Dist {
	root := idx.Order[r]
	return idx.queryVertices(root, v)
}

// Query returns the exact distance between u and v.
func (idx *Index) Query(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	return idx.queryVertices(u, v)
}

// queryVertices merges the sorted hub lists of u and v.
func (idx *Index) queryVertices(u, v uint32) graph.Dist {
	lu, lv := idx.L[u], idx.L[v]
	best := graph.Inf
	i, j := 0, 0
	for i < len(lu) && j < len(lv) {
		switch {
		case lu[i].Hub == lv[j].Hub:
			if t := graph.AddDist(lu[i].D, lv[j].D); t < best {
				best = t
			}
			i++
			j++
		case lu[i].Hub < lv[j].Hub:
			i++
		default:
			j++
		}
	}
	// The hub may be u or v itself: rank(u) appears in L(u) with distance 0
	// by construction, so the merge above already covers those cases.
	return best
}

// InsertEdge applies the WWW 2014 incremental update for an inserted edge
// (a,b): resume a pruned BFS from b for every hub of a, and from a for
// every hub of b, adding or tightening entries where the current labelling
// overestimates. Entries are never removed.
func (idx *Index) InsertEdge(a, b uint32) error {
	g := idx.G
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return fmt.Errorf("pll: insert (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return fmt.Errorf("pll: insert (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if g.HasEdge(a, b) {
		return fmt.Errorf("pll: edge (%d,%d) already exists", a, b)
	}
	if _, err := g.AddEdge(a, b); err != nil {
		return err
	}
	// Snapshot the hub lists: resumes append to labels.
	hubsA := append([]Entry(nil), idx.L[a]...)
	hubsB := append([]Entry(nil), idx.L[b]...)
	for _, e := range hubsA {
		idx.resume(e.Hub, b, graph.AddDist(e.D, 1))
	}
	for _, e := range hubsB {
		idx.resume(e.Hub, a, graph.AddDist(e.D, 1))
	}
	return nil
}

// resume restarts the pruned BFS of hub rank r at vertex start with the
// given depth.
func (idx *Index) resume(r uint32, start uint32, depth graph.Dist) {
	n := idx.G.NumVertices()
	visited := make(map[uint32]bool, 16)
	idx.q.Reset()
	idx.q.Push(queue.Pair{V: start, D: depth})
	visited[start] = true
	_ = n
	for !idx.q.Empty() {
		p := idx.q.Pop()
		if idx.queryWithTmp(r, p.V) <= p.D {
			continue
		}
		idx.setEntry(p.V, r, p.D)
		for _, w := range idx.G.Neighbors(p.V) {
			if !visited[w] {
				visited[w] = true
				idx.q.Push(queue.Pair{V: w, D: p.D + 1})
			}
		}
	}
}

// setEntry adds or tightens the entry for hub rank r in L(v), keeping the
// list sorted by hub rank. Existing larger distances are overwritten (the
// baseline "modifies existing entries"); stale entries for other hubs stay.
func (idx *Index) setEntry(v uint32, r uint32, d graph.Dist) {
	l := idx.L[v]
	i := sort.Search(len(l), func(i int) bool { return l[i].Hub >= r })
	if i < len(l) && l[i].Hub == r {
		if d < l[i].D {
			l[i].D = d
		}
		return
	}
	l = append(l, Entry{})
	copy(l[i+1:], l[i:])
	l[i] = Entry{Hub: r, D: d}
	idx.L[v] = l
}

// NumEntries returns the total number of label entries.
func (idx *Index) NumEntries() int64 {
	var n int64
	for _, l := range idx.L {
		n += int64(len(l))
	}
	return n
}

// Bytes returns the storage charged for the labelling.
func (idx *Index) Bytes() int64 { return idx.NumEntries() * EntryBytes }

// AvgLabelSize returns entries per vertex.
func (idx *Index) AvgLabelSize() float64 {
	if len(idx.L) == 0 {
		return 0
	}
	return float64(idx.NumEntries()) / float64(len(idx.L))
}
