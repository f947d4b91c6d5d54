// Package whcl implements the weighted extension of highway cover
// labelling and IncHL+ sketched in Section 5 of Farhan & Wang (EDBT 2021):
// Dijkstra searches replace BFS throughout. The label semantics, the
// covered/uncovered classification of Lemma 4.6 and the minimality argument
// carry over unchanged because edge weights are positive integers: a
// shortest-path parent always has a strictly smaller distance, so
// processing vertices in distance order is well-founded.
package whcl

import (
	"fmt"
	"time"

	"repro/internal/arena"
	"repro/internal/bitset"
	"repro/internal/fanout"
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// noRank marks non-landmark vertices.
const noRank = ^uint16(0)

// Index is a weighted highway cover labelling.
// Queries are safe for any number of concurrent readers (each in-flight
// query draws its own Dijkstra scratch from a pool); mutations require
// exclusive access.
type Index struct {
	G         *wgraph.Graph
	Landmarks []uint32
	L         []hcl.Label

	hw      []graph.Dist // k×k symmetric highway of exact weighted distances
	k       int
	rankArr []uint16

	// shared is non-nil only on forks: a set bit means L[v]'s backing array
	// still belongs to the parent and is copied before the first write.
	shared *bitset.Set

	// packed is the CSR read representation of L, non-nil only while the
	// index is publishable (built by Pack, dropped by the first label
	// write); queries prefer it. parent remembers the forked-from index
	// until the fork's own Pack runs, which reads the parent's packed form
	// then — not at fork time — so a fork taken while its parent is still
	// packing keeps the delta repack. Pack clears it so ancestor chains
	// are not pinned.
	packed *hcl.Packed
	parent *Index

	// mapRef pins the mmap'd checkpoint this index was attached to by
	// ReadIndexMapped, if any; forks inherit it because their label slices
	// may alias the mapped bytes indefinitely (see hcl.Index.mapRef).
	mapRef *arena.Mapping

	// Workers bounds the per-landmark fan-out of InsertEdge/DeleteEdge
	// repairs: 0 (the default) resolves to GOMAXPROCS, 1 forces the serial
	// path, any other value is used as given. Every worker count produces a
	// byte-identical labelling and identical Stats (see parallel.go).
	Workers int

	// RepairTimer, when non-nil, observes the wall time of every
	// per-landmark repair task. It is called from worker goroutines and must
	// be safe for concurrent use.
	RepairTimer func(time.Duration)

	// del is worker 0's rebuild scratch, reused across updates (mutations
	// hold exclusive access); extra workers draw pooled scratches.
	del    passScratch
	finds  []findResult
	deltas []repairDelta
}

// Build constructs the minimal weighted labelling with one covered-flag
// Dijkstra per landmark.
func Build(g *wgraph.Graph, landmarks []uint32) (*Index, error) {
	return BuildParallel(g, landmarks, 1)
}

// BuildParallel constructs the same labelling as Build, fanning the
// per-landmark construction Dijkstras across workers (0 = GOMAXPROCS,
// 1 = serial). The result is byte-identical for every worker count: tasks
// only buffer deltas against the empty labelling and a single-threaded
// merge applies them in rank order.
func BuildParallel(g *wgraph.Graph, landmarks []uint32, workers int) (*Index, error) {
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("whcl: need at least one landmark")
	}
	seen := make(map[uint32]bool, len(landmarks))
	for _, v := range landmarks {
		if !g.HasVertex(v) {
			return nil, fmt.Errorf("whcl: landmark %d is not a vertex of the graph", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("whcl: duplicate landmark %d", v)
		}
		seen[v] = true
	}
	k := len(landmarks)
	hw := make([]graph.Dist, k*k)
	for i := range hw {
		hw[i] = graph.Inf
	}
	for i := 0; i < k; i++ {
		hw[i*k+i] = 0
	}
	idx := newIndex(g, append([]uint32(nil), landmarks...), hw)
	idx.L = make([]hcl.Label, g.NumVertices())
	var st Stats
	// rebuildLandmarks on an empty labelling is exactly the construction
	// pass; it is shared with the decremental repair path.
	ranks := make([]uint16, k)
	for r := range ranks {
		ranks[r] = uint16(r)
	}
	idx.rebuildLandmarks(fanout.Resolve(workers), ranks, &st)
	return idx, nil
}

// newIndex allocates the skeleton of a weighted index over g: landmarks,
// the row-major k×k highway hw and the rank table. The label table is left
// to the caller.
func newIndex(g *wgraph.Graph, landmarks []uint32, hw []graph.Dist) *Index {
	idx := &Index{
		G:         g,
		Landmarks: landmarks,
		hw:        hw,
		k:         len(landmarks),
		rankArr:   make([]uint16, g.NumVertices()),
	}
	for i := range idx.rankArr {
		idx.rankArr[i] = noRank
	}
	for r, v := range landmarks {
		idx.rankArr[v] = uint16(r)
	}
	return idx
}

// rebuildLandmarks fans the covered-flag Dijkstra of the given landmark
// ranks across workers — construction on an empty labelling, decremental
// repair after a deletion — and merges their buffered deltas in task order.
func (idx *Index) rebuildLandmarks(workers int, ranks []uint16, st *Stats) {
	idx.sizeDeltas(len(ranks))
	idx.fan(workers, len(ranks), func(ws *passScratch, t int) {
		d := &idx.deltas[t]
		d.reset()
		idx.rebuildLandmarkDelta(ranks[t], ws, d)
	})
	for t, r := range ranks {
		idx.applyRebuild(r, &idx.deltas[t], st)
	}
}

// Highway returns the exact weighted distance between landmark ranks.
func (idx *Index) Highway(i, j uint16) graph.Dist { return idx.hw[int(i)*idx.k+int(j)] }

func (idx *Index) setHighway(i, j uint16, d graph.Dist) {
	idx.hw[int(i)*idx.k+int(j)] = d
	idx.hw[int(j)*idx.k+int(i)] = d
}

// Rank returns the landmark rank of v, if any.
func (idx *Index) Rank(v uint32) (uint16, bool) {
	r := idx.rankArr[v]
	return r, r != noRank
}

// label returns the entry span of vertex v from the packed arena when the
// index is packed, else from the mutable label table. The query path reads
// labels only through this helper, so both representations answer
// identically.
func (idx *Index) label(v uint32) []hcl.Entry {
	if p := idx.packed; p != nil {
		return p.Label(v)
	}
	return idx.L[v]
}

// LandmarkDist returns the exact weighted distance from landmark rank r to
// any vertex v (Equation 1 with Dijkstra distances).
func (idx *Index) LandmarkDist(r uint16, v uint32) graph.Dist {
	if s := idx.rankArr[v]; s != noRank {
		return idx.Highway(r, s)
	}
	return hcl.LandmarkVia(idx.hw[int(r)*idx.k:int(r)*idx.k+idx.k], idx.label(v))
}

// UpperBound returns the best u–v distance through the highway network.
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
		return idx.LandmarkDist(ru, v)
	case vIsL:
		return idx.LandmarkDist(rv, u)
	}
	return hcl.UpperBoundMat(idx.hw, idx.k, idx.label(u), idx.label(v))
}

// Query answers an exact weighted distance query: the highway upper bound
// refined by a bounded bidirectional Dijkstra on the sparsified graph.
func (idx *Index) Query(u, v uint32) graph.Dist {
	if u == v {
		return 0
	}
	top := idx.UpperBound(u, v)
	if _, isL := idx.Rank(u); isL {
		return top
	}
	if _, isL := idx.Rank(v); isL {
		return top
	}
	avoid := func(x uint32) bool { return idx.rankArr[x] != noRank }
	s := wgraph.Spaces.Get(idx.G.NumVertices())
	sp := idx.G.Sparsified(u, v, top, avoid, s)
	wgraph.Spaces.Put(s)
	if sp < top {
		return sp
	}
	return top
}

// NumEntries returns size(L).
func (idx *Index) NumEntries() int64 {
	var n int64
	for _, l := range idx.L {
		n += int64(len(l))
	}
	return n
}

// Bytes returns the storage charged for the labelling and the highway.
func (idx *Index) Bytes() int64 {
	_, bytes := idx.Sizes()
	return bytes
}

// Sizes returns NumEntries and Bytes with a single label scan.
func (idx *Index) Sizes() (entries, bytes int64) {
	entries = idx.NumEntries()
	return entries, entries*hcl.EntryBytes + int64(len(idx.hw))*4
}

// EnsureVertex grows the label table to cover v.
func (idx *Index) EnsureVertex(v uint32) {
	if uint32(len(idx.L)) <= v {
		idx.packed = nil // the packed form no longer covers every vertex
	}
	for uint32(len(idx.L)) <= v {
		idx.L = append(idx.L, nil)
		idx.rankArr = append(idx.rankArr, noRank)
	}
	if idx.shared != nil {
		idx.shared.Grow(len(idx.L)) // new bits are clear: the fork owns new labels
	}
}

// Fork returns a copy-on-write copy of the index bound to g, which must be
// a fork of idx.G taken at the same moment. The label-table header, rank
// array and small highway matrix are copied (O(|V| + k²)), but every
// per-vertex label's backing array stays shared with idx until the fork
// first writes to it. Snapshot discipline: idx is frozen once forked.
func (idx *Index) Fork(g *wgraph.Graph) *Index {
	return &Index{
		G:           g,
		Landmarks:   idx.Landmarks, // immutable after construction
		L:           append([]hcl.Label(nil), idx.L...),
		hw:          append([]graph.Dist(nil), idx.hw...),
		k:           idx.k,
		rankArr:     append([]uint16(nil), idx.rankArr...),
		shared:      bitset.NewAllSet(len(idx.L)),
		mapRef:      idx.mapRef, // label slices may still alias the mapping
		Workers:     idx.Workers,
		RepairTimer: idx.RepairTimer,
		// The fork mutates, so it starts unpacked; remembering the parent
		// lets its Pack reuse whatever chunks the parent's arena holds by
		// the time the fork itself is frozen.
		parent: idx,
	}
}

// Pack builds the packed read representation of the current labelling (see
// hcl.Packed). On an index forked from a packed parent it is delta-aware:
// chunks whose labels the fork never touched are reused from the parent's
// arena by reference. Idempotent; any subsequent label write drops the
// packed form again.
func (idx *Index) Pack() {
	if idx.packed != nil {
		return
	}
	var parentPacked *hcl.Packed
	if idx.parent != nil {
		parentPacked = idx.parent.packed
	}
	idx.packed = hcl.PackParallel(idx.L, parentPacked, idx.shared, idx.Workers)
	idx.parent = nil
}

// PackedLabels returns the packed read form, or nil when the index has
// unpublished label writes (or was never packed).
func (idx *Index) PackedLabels() *hcl.Packed { return idx.packed }

// MappedBytes returns the size of the mmap'd checkpoint region this index
// still holds alive, or 0 for a fully heap-resident index.
func (idx *Index) MappedBytes() int64 {
	if idx.mapRef != nil {
		return idx.mapRef.Len()
	}
	if idx.packed != nil {
		return idx.packed.MappedBytes()
	}
	return 0
}

// ownLabel makes L[v] writable on a fork, copying the shared backing array
// on first touch. Every label write goes through here, so it also drops the
// packed read form — the slice form is the write representation.
func (idx *Index) ownLabel(v uint32) {
	idx.packed = nil
	if idx.shared == nil || !idx.shared.Get(v) {
		return
	}
	idx.L[v] = append(make(hcl.Label, 0, len(idx.L[v])+1), idx.L[v]...)
	idx.shared.Clear(v)
}

// VerifyCover checks Equation 1 against ground-truth Dijkstra distances.
func (idx *Index) VerifyCover() error {
	n := idx.G.NumVertices()
	dist := make([]graph.Dist, n)
	for r := range idx.Landmarks {
		idx.G.Dijkstra(idx.Landmarks[r], dist)
		for v := 0; v < n; v++ {
			if got := idx.LandmarkDist(uint16(r), uint32(v)); got != dist[v] {
				return fmt.Errorf("whcl: cover violated: landmark %d to %d: label %d, Dijkstra %d",
					idx.Landmarks[r], v, got, dist[v])
			}
		}
	}
	return nil
}

// EqualLabels reports whether two indexes are identical (labels + highway).
func (idx *Index) EqualLabels(o *Index) error {
	if len(idx.L) != len(o.L) {
		return fmt.Errorf("whcl: label table size differs: %d vs %d", len(idx.L), len(o.L))
	}
	for v := range idx.L {
		if !idx.L[v].Equal(o.L[v]) {
			return fmt.Errorf("whcl: label of %d differs: %v vs %v", v, idx.L[v], o.L[v])
		}
	}
	if idx.k != o.k {
		return fmt.Errorf("whcl: landmark counts differ")
	}
	for i := range idx.hw {
		if idx.hw[i] != o.hw[i] {
			return fmt.Errorf("whcl: highway cell %d differs: %d vs %d", i, idx.hw[i], o.hw[i])
		}
	}
	return nil
}
