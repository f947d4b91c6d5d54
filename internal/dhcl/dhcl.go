// Package dhcl implements the directed extension of highway cover
// labelling and IncHL+ sketched in Section 5 of Farhan & Wang (EDBT 2021):
// every vertex stores a forward label (distances from landmarks, over
// out-edges) and a backward label (distances to landmarks, over in-edges),
// the highway holds the directed landmark-to-landmark distance matrix, and
// an insertion triggers two maintenance passes per landmark — one forward
// from the edge head, one backward from the edge tail.
package dhcl

import (
	"fmt"
	"time"

	"repro/internal/arena"
	"repro/internal/bfs"
	"repro/internal/bitset"
	"repro/internal/digraph"
	"repro/internal/fanout"
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/queue"
)

// noRank marks non-landmark vertices.
const noRank = ^uint16(0)

// Index is a directed highway cover labelling Γ = (H_f, L_f, L_b).
// Queries are safe for any number of concurrent readers; mutations require
// exclusive access.
type Index struct {
	G         *digraph.Digraph
	Landmarks []uint32
	Lf        []hcl.Label // forward labels: (r, d(r→v))
	Lb        []hcl.Label // backward labels: (r, d(v→r))

	hf      []graph.Dist // k×k directed highway: hf[i*k+j] = d(ri→rj)
	k       int
	rankArr []uint16

	// sharedF/sharedB are non-nil only on forks: a set bit means that
	// direction's label backing array still belongs to the parent and is
	// copied before the first write (see Fork).
	sharedF *bitset.Set
	sharedB *bitset.Set

	// packedF/packedB are the CSR read representations of Lf and Lb,
	// non-nil only while the index is publishable (built by Pack, dropped
	// by the first label write); queries prefer them. parent remembers the
	// forked-from index until the fork's own Pack runs, which reads the
	// parent's packed forms then — not at fork time — so a fork taken
	// while its parent is still packing keeps the delta repack (see
	// hcl.Pack). Pack clears it so ancestor chains are not pinned.
	packedF, packedB *hcl.Packed
	parent           *Index

	// mapRef pins the mmap'd checkpoint this index was attached to by
	// ReadIndexMapped, if any; forks inherit it because their label slices
	// may alias the mapped bytes indefinitely (see hcl.Index.mapRef).
	mapRef *arena.Mapping

	// Workers bounds the per-pass fan-out of InsertEdge/DeleteEdge repairs:
	// 0 (the default) resolves to GOMAXPROCS, 1 forces the serial path, any
	// other value is used as given. Every worker count produces a
	// byte-identical labelling and identical Stats (see parallel.go).
	Workers int

	// RepairTimer, when non-nil, observes the wall time of every repair
	// pass. It is called from worker goroutines and must be safe for
	// concurrent use.
	RepairTimer func(time.Duration)

	// del is worker 0's rebuild scratch, reused across updates (mutations
	// hold exclusive access); extra workers draw pooled scratches.
	del    passScratch
	finds  []findResult
	deltas []passDelta
}

// passTask names one (landmark, direction) maintenance pass.
type passTask struct {
	rank uint16
	fwd  bool
}

// Build constructs the minimal directed labelling: per landmark one forward
// and one backward covered-flag BFS.
func Build(g *digraph.Digraph, landmarks []uint32) (*Index, error) {
	return BuildParallel(g, landmarks, 1)
}

// BuildParallel constructs the same labelling as Build, fanning the
// per-(landmark, direction) construction passes across workers
// (0 = GOMAXPROCS, 1 = serial). The result is byte-identical for every
// worker count: passes only buffer deltas against the empty labelling and a
// single-threaded merge applies them in pass order.
func BuildParallel(g *digraph.Digraph, landmarks []uint32, workers int) (*Index, error) {
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("dhcl: need at least one landmark")
	}
	seen := make(map[uint32]bool, len(landmarks))
	for _, v := range landmarks {
		if !g.HasVertex(v) {
			return nil, fmt.Errorf("dhcl: landmark %d is not a vertex of the graph", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("dhcl: duplicate landmark %d", v)
		}
		seen[v] = true
	}
	n := g.NumVertices()
	k := len(landmarks)
	hf := make([]graph.Dist, k*k)
	for i := range hf {
		hf[i] = graph.Inf
	}
	for i := 0; i < k; i++ {
		hf[i*k+i] = 0
	}
	idx := newIndex(g, append([]uint32(nil), landmarks...), hf)
	idx.Lf, idx.Lb = make([]hcl.Label, n), make([]hcl.Label, n)
	tasks := make([]passTask, 0, 2*k)
	for r := 0; r < k; r++ {
		// Serial construction order: forward then backward per landmark.
		tasks = append(tasks, passTask{uint16(r), true}, passTask{uint16(r), false})
	}
	var st Stats
	idx.rebuildPasses(fanout.Resolve(workers), tasks, &st)
	return idx, nil
}

// newIndex allocates the skeleton of a directed index over g: landmarks,
// the row-major k×k highway hf and the rank table. Label tables are left
// to the caller.
func newIndex(g *digraph.Digraph, landmarks []uint32, hf []graph.Dist) *Index {
	idx := &Index{
		G:         g,
		Landmarks: landmarks,
		hf:        hf,
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

// rebuildPasses fans the covered-flag BFS of the given (landmark, direction)
// passes across workers — construction on an empty labelling, decremental
// repair after a deletion — and merges their buffered deltas in task order,
// charging each pass's changes to the matching Stats.Affected* counter.
func (idx *Index) rebuildPasses(workers int, tasks []passTask, st *Stats) {
	idx.sizeDeltas(len(tasks))
	idx.fan(workers, len(tasks), func(ws *passScratch, t int) {
		d := &idx.deltas[t]
		d.reset()
		idx.rebuildPassDelta(tasks[t].rank, tasks[t].fwd, ws, d)
	})
	for t := range tasks {
		before := st.EntriesAdded + st.EntriesRemoved + st.HighwayUpdates
		idx.applyPassRebuild(tasks[t].rank, tasks[t].fwd, &idx.deltas[t], st)
		changed := st.EntriesAdded + st.EntriesRemoved + st.HighwayUpdates - before
		if tasks[t].fwd {
			st.AffectedForward += changed
		} else {
			st.AffectedBack += changed
		}
	}
}

// rebuildPassDelta runs the covered-flag BFS of landmark rank r in one
// direction (forward over out-edges when fwd, else backward over in-edges)
// over the current graph and buffers the replacement of that direction's
// entries and highway cells — setting label entries for uncovered reachable
// vertices, removing stale ones, and resetting cells of vertices that became
// unreachable to Inf. Label edits are pre-checked against the frozen
// labelling and exact (only this pass touches rank-r entries of its
// direction); highway cells are candidates the merge re-checks. On an empty
// labelling this is the construction pass; after an edge deletion it is the
// decremental repair of one affected (landmark, direction) pair.
func (idx *Index) rebuildPassDelta(r uint16, fwd bool, ws *passScratch, d *passDelta) {
	root := idx.Landmarks[r]
	adj := idx.G.In
	if fwd {
		adj = idx.G.Out
	}
	n := idx.G.NumVertices()
	dist, covered := ws.dist[:n], ws.cover[:n]
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[root] = 0
	covered[root] = false
	q := queue.NewUint32(64)
	q.Push(root)
	for !q.Empty() {
		v := q.Pop()
		dv := dist[v]
		cv := covered[v]
		for _, w := range adj(v) {
			switch {
			case dist[w] == graph.Inf:
				dist[w] = dv + 1
				covered[w] = cv || (idx.rankArr[w] != noRank && w != root)
				q.Push(w)
			case dist[w] == dv+1 && cv:
				covered[w] = true
			}
		}
	}
	labels := idx.Lb
	if fwd {
		labels = idx.Lf
	}
	for v := 0; v < len(labels); v++ {
		vv := uint32(v)
		if vv == root {
			continue
		}
		if s := idx.rankArr[vv]; s != noRank {
			i, j := r, s // d(root→s)
			if !fwd {
				i, j = s, r // d(s→root)
			}
			if idx.Highway(i, j) != dist[v] {
				d.cell(s, dist[v])
			}
			continue
		}
		if dist[v] != graph.Inf && !covered[vv] {
			if old, had := labels[vv].Get(r); !had || old != dist[v] {
				d.setEntry(vv, dist[v])
			}
		} else if _, had := labels[vv].Get(r); had {
			d.removeEntry(vv)
		}
	}
}

// Highway returns d(r_i → r_j) between landmark ranks.
func (idx *Index) Highway(i, j uint16) graph.Dist { return idx.hf[int(i)*idx.k+int(j)] }

func (idx *Index) setHighway(i, j uint16, d graph.Dist) { idx.hf[int(i)*idx.k+int(j)] = d }

// Rank returns the landmark rank of v, if any.
func (idx *Index) Rank(v uint32) (uint16, bool) {
	r := idx.rankArr[v]
	return r, r != noRank
}

// labelF returns the forward entry span of vertex v from the packed arena
// when the index is packed, else from the mutable label table; labelB
// mirrors it for backward labels. The query path reads labels only through
// these helpers, so both representations answer identically.
func (idx *Index) labelF(v uint32) []hcl.Entry {
	if p := idx.packedF; p != nil {
		return p.Label(v)
	}
	return idx.Lf[v]
}

func (idx *Index) labelB(v uint32) []hcl.Entry {
	if p := idx.packedB; p != nil {
		return p.Label(v)
	}
	return idx.Lb[v]
}

// DistF returns the exact directed distance landmark(r) → v.
func (idx *Index) DistF(r uint16, v uint32) graph.Dist {
	if s := idx.rankArr[v]; s != noRank {
		return idx.Highway(r, s)
	}
	// Row r of the highway holds d(r→s) for every rank s, which is exactly
	// the Equation 1 kernel shape.
	return hcl.LandmarkVia(idx.hf[int(r)*idx.k:int(r)*idx.k+idx.k], idx.labelF(v))
}

// DistB returns the exact directed distance v → landmark(r).
func (idx *Index) DistB(r uint16, v uint32) graph.Dist {
	if s := idx.rankArr[v]; s != noRank {
		return idx.Highway(s, r)
	}
	best := graph.Inf
	for _, e := range idx.labelB(v) {
		if t := graph.AddDist(e.D, idx.Highway(e.Rank, r)); t < best {
			best = t
		}
	}
	return best
}

// UpperBound returns the best u→v distance through the highway network.
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
		return idx.DistF(ru, v)
	case vIsL:
		return idx.DistB(rv, u)
	}
	// Equation 2, directed: min over eu ∈ L_b(u), ev ∈ L_f(v) of
	// δ(u→eu) + δ_H(eu→ev) + δ(ev→v), the shared kernel over the flat
	// highway matrix.
	return hcl.UpperBoundMat(idx.hf, idx.k, idx.labelB(u), idx.labelF(v))
}

// Query answers an exact directed distance query u→v: the highway upper
// bound refined by a bounded bidirectional search on the sparsified graph.
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
	if top <= 1 {
		return top
	}
	avoid := func(x uint32) bool { return idx.rankArr[x] != noRank }
	s := bfs.Spaces.Get(idx.G.NumVertices())
	sp := idx.G.Sparsified(u, v, top, avoid, s)
	bfs.Spaces.Put(s)
	if sp < top {
		return sp
	}
	return top
}

// NumEntries returns size(L_f) + size(L_b).
func (idx *Index) NumEntries() int64 {
	var n int64
	for v := range idx.Lf {
		n += int64(len(idx.Lf[v])) + int64(len(idx.Lb[v]))
	}
	return n
}

// Bytes returns the storage charged for both label sets and the highway.
func (idx *Index) Bytes() int64 {
	_, bytes := idx.Sizes()
	return bytes
}

// Sizes returns NumEntries and Bytes with a single label scan.
func (idx *Index) Sizes() (entries, bytes int64) {
	entries = idx.NumEntries()
	return entries, entries*hcl.EntryBytes + int64(len(idx.hf))*4
}

// EnsureVertex grows the label tables to cover vertex v.
func (idx *Index) EnsureVertex(v uint32) {
	if uint32(len(idx.Lf)) <= v {
		idx.unpack() // the packed forms no longer cover every vertex
	}
	for uint32(len(idx.Lf)) <= v {
		idx.Lf = append(idx.Lf, nil)
		idx.Lb = append(idx.Lb, nil)
		idx.rankArr = append(idx.rankArr, noRank)
	}
	if idx.sharedF != nil {
		idx.sharedF.Grow(len(idx.Lf)) // new bits are clear: the fork owns new labels
		idx.sharedB.Grow(len(idx.Lb))
	}
}

// unpack drops the packed read forms; the slice form is the write
// representation, so every label write goes through here (via ownLabel).
func (idx *Index) unpack() {
	idx.packedF, idx.packedB = nil, nil
}

// Pack builds the packed read representations of both label directions (see
// hcl.Packed). On an index forked from a packed parent it is delta-aware:
// chunks whose labels the fork never touched are reused from the parent's
// arenas by reference. Idempotent; any subsequent label write drops the
// packed forms again.
func (idx *Index) Pack() {
	var parentF, parentB *hcl.Packed
	if idx.parent != nil {
		parentF, parentB = idx.parent.packedF, idx.parent.packedB
	}
	if idx.packedF == nil {
		idx.packedF = hcl.PackParallel(idx.Lf, parentF, idx.sharedF, idx.Workers)
	}
	if idx.packedB == nil {
		idx.packedB = hcl.PackParallel(idx.Lb, parentB, idx.sharedB, idx.Workers)
	}
	idx.parent = nil
}

// PackedForward and PackedBackward return the packed read forms, or nil
// when the index has unpublished label writes (or was never packed).
func (idx *Index) PackedForward() *hcl.Packed { return idx.packedF }

// PackedBackward returns the backward packed form; see PackedForward.
func (idx *Index) PackedBackward() *hcl.Packed { return idx.packedB }

// MappedBytes returns the size of the mmap'd checkpoint region this index
// still holds alive (both directions share one mapping), or 0 for a fully
// heap-resident index.
func (idx *Index) MappedBytes() int64 {
	if idx.mapRef != nil {
		return idx.mapRef.Len()
	}
	var n int64
	if idx.packedF != nil {
		n = idx.packedF.MappedBytes()
	}
	if n == 0 && idx.packedB != nil {
		n = idx.packedB.MappedBytes()
	}
	return n
}

// Fork returns a copy-on-write copy of the index bound to g, which must be
// a fork of idx.G taken at the same moment. Label-table headers, the rank
// array and the small highway matrix are copied (O(|V| + k²)), but every
// per-vertex label's backing array stays shared with idx until the fork
// first writes to it. Snapshot discipline: idx is frozen once forked.
func (idx *Index) Fork(g *digraph.Digraph) *Index {
	return &Index{
		G:           g,
		Landmarks:   idx.Landmarks, // immutable after construction
		Lf:          append([]hcl.Label(nil), idx.Lf...),
		Lb:          append([]hcl.Label(nil), idx.Lb...),
		hf:          append([]graph.Dist(nil), idx.hf...),
		k:           idx.k,
		rankArr:     append([]uint16(nil), idx.rankArr...),
		sharedF:     bitset.NewAllSet(len(idx.Lf)),
		sharedB:     bitset.NewAllSet(len(idx.Lb)),
		mapRef:      idx.mapRef, // label slices may still alias the mapping
		Workers:     idx.Workers,
		RepairTimer: idx.RepairTimer,
		// The fork mutates, so it starts unpacked; remembering the parent
		// lets its Pack reuse whatever chunks the parent's arenas hold by
		// the time the fork itself is frozen.
		parent: idx,
	}
}

// ownLabel makes the fwd-direction label of v writable on a fork, copying
// the shared backing array on first touch. The returned write-through is
// idx.Lf/idx.Lb itself, so callers holding an alias of the label table see
// the owned copy immediately (slice headers share the backing array).
func (idx *Index) ownLabel(fwd bool, v uint32) {
	idx.unpack() // the slice form is the write representation
	labels, shared := idx.Lb, idx.sharedB
	if fwd {
		labels, shared = idx.Lf, idx.sharedF
	}
	if shared == nil || !shared.Get(v) {
		return
	}
	labels[v] = append(make(hcl.Label, 0, len(labels[v])+1), labels[v]...)
	shared.Clear(v)
}
