package hcl

import (
	"repro/internal/arena"
	"repro/internal/bitset"
	"repro/internal/graph"
)

// Index is a highway cover labelling Γ = (H, L) over a graph G: a set of
// landmarks R, the highway of exact landmark-to-landmark distances, and one
// distance label per vertex. It answers exact distance queries and is the
// structure that IncHL+ maintains under insertions.
//
// Queries are safe for any number of concurrent readers (each in-flight
// query draws its own scratch from a pool); mutations (IncHL+ repairs,
// EnsureVertex) require exclusive access.
type Index struct {
	G         *graph.Graph
	Landmarks []uint32 // rank -> vertex id
	H         *Highway
	L         []Label // vertex id -> label

	rankOf  map[uint32]uint16 // landmark vertex id -> rank
	rankArr []uint16          // vertex id -> rank, noRank if not a landmark

	// shared is non-nil only on forks: a set bit means L[v]'s backing array
	// still belongs to the parent index and is copied before the first
	// label write (see Fork).
	shared *bitset.Set

	// packed is the CSR read representation of L, non-nil only while the
	// index is publishable (built by Pack, dropped by the first label
	// write); queries prefer it. parent remembers the index this fork was
	// taken from until the fork's own Pack runs, which reads the parent's
	// packed form then — not at fork time — so a fork taken while its
	// parent is still packing (the pipelined Store repairs epoch N+1 while
	// N packs) still gets the delta repack. Pack clears it so ancestor
	// chains are not pinned.
	packed *Packed
	parent *Index

	// mapRef pins the mmap'd checkpoint this index was attached to by
	// ReadIndexMapped, if any. Label slices and packed chunks may alias the
	// mapped bytes for the rest of the index's life (copy-on-write repairs
	// migrate labels to the heap one at a time, never all at once), so
	// every fork inherits the reference and the region is unmapped only
	// when the last descendant snapshot is collected.
	mapRef *arena.Mapping

	// Workers bounds the fan-out of Pack's per-chunk flattening: 0 (the
	// default) resolves to GOMAXPROCS, 1 forces the serial path. The packed
	// form is identical for every worker count. The per-landmark repair
	// fan-out is tuned separately, on inchl.Updater.
	Workers int
}

// noRank marks non-landmark vertices in the rank lookup table.
const noRank = ^uint16(0)

// newIndex allocates the skeleton of an index over g with the given
// landmark set (labels empty, highway diagonal only).
func newIndex(g *graph.Graph, landmarks []uint32) *Index {
	idx := &Index{
		G:         g,
		Landmarks: append([]uint32(nil), landmarks...),
		H:         NewHighway(len(landmarks)),
		L:         make([]Label, g.NumVertices()),
	}
	idx.indexRanks()
	return idx
}

// indexRanks builds the landmark rank lookups over G's vertices.
func (idx *Index) indexRanks() {
	idx.rankOf = make(map[uint32]uint16, len(idx.Landmarks))
	idx.rankArr = make([]uint16, idx.G.NumVertices())
	for i := range idx.rankArr {
		idx.rankArr[i] = noRank
	}
	for r, v := range idx.Landmarks {
		idx.rankOf[v] = uint16(r)
		idx.rankArr[v] = uint16(r)
	}
}

// NumLandmarks returns |R|.
func (idx *Index) NumLandmarks() int { return len(idx.Landmarks) }

// Rank returns the landmark rank of vertex v, if v is a landmark.
func (idx *Index) Rank(v uint32) (uint16, bool) {
	r := idx.rankArr[v]
	return r, r != noRank
}

// IsLandmark reports whether v is a landmark.
func (idx *Index) IsLandmark(v uint32) bool {
	return idx.rankArr[v] != noRank
}

// EnsureVertex grows the label table to cover vertex v, for use after the
// underlying graph gained vertices.
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

// EntryDist returns the label entry distance of landmark rank r at vertex v.
func (idx *Index) EntryDist(v uint32, r uint16) (graph.Dist, bool) {
	return FindEntry(idx.label(v), r)
}

// SetEntry adds or modifies the entry of landmark rank r in L(v).
func (idx *Index) SetEntry(v uint32, r uint16, d graph.Dist) {
	idx.packed = nil // the slice form is the write representation
	idx.ownLabel(v)
	idx.L[v] = idx.L[v].Set(r, d)
}

// RemoveEntry removes the entry of landmark rank r from L(v) if present.
func (idx *Index) RemoveEntry(v uint32, r uint16) bool {
	if _, present := idx.L[v].Get(r); !present {
		return false
	}
	idx.packed = nil // the slice form is the write representation
	idx.ownLabel(v)
	l, ok := idx.L[v].Remove(r)
	idx.L[v] = l
	return ok
}

// ownLabel makes L[v] writable on a fork, copying the shared backing array
// on first touch. A no-op on plain indexes and already-owned labels.
func (idx *Index) ownLabel(v uint32) {
	if idx.shared == nil || !idx.shared.Get(v) {
		return
	}
	idx.L[v] = append(make(Label, 0, len(idx.L[v])+1), idx.L[v]...)
	idx.shared.Clear(v)
}

// Pack builds the packed read representation of the current labelling (see
// Packed). On an index forked from a packed parent it is delta-aware:
// chunks whose labels the fork never touched are reused from the parent's
// arena by reference. Pack is idempotent — a second call on an unchanged
// index is a no-op — and any subsequent label write drops the packed form
// again, so it is meaningful only on indexes about to be frozen (an epoch
// publish, or a read-mostly plain index).
func (idx *Index) Pack() {
	if idx.packed != nil {
		return
	}
	var parentPacked *Packed
	if idx.parent != nil {
		parentPacked = idx.parent.packed
	}
	idx.packed = PackParallel(idx.L, parentPacked, idx.shared, idx.Workers)
	idx.parent = nil
}

// PackedLabels returns the packed read representation, or nil when the
// index has unpublished label writes (or was never packed).
func (idx *Index) PackedLabels() *Packed { return idx.packed }

// MappedBytes returns the size of the mmap'd checkpoint region this index
// still holds alive, or 0 for a fully heap-resident index — the mapped
// half of the Stats PackedBytes/MappedBytes pair.
func (idx *Index) MappedBytes() int64 {
	if idx.mapRef != nil {
		return idx.mapRef.Len()
	}
	if idx.packed != nil {
		return idx.packed.MappedBytes()
	}
	return 0
}

// label returns the entry span of vertex v from the packed arena when the
// index is packed, else from the mutable label table. The query path reads
// labels only through this helper, so both representations answer
// identically.
func (idx *Index) label(v uint32) []Entry {
	if p := idx.packed; p != nil {
		return p.Label(v)
	}
	return idx.L[v]
}

// NumEntries returns size(L), the total number of label entries.
func (idx *Index) NumEntries() int64 {
	var n int64
	for _, l := range idx.L {
		n += int64(len(l))
	}
	return n
}

// Bytes returns the storage charged for the labelling: EntryBytes per label
// entry plus the highway matrix.
func (idx *Index) Bytes() int64 {
	return idx.NumEntries()*EntryBytes + idx.H.Bytes()
}

// AvgLabelSize returns size(L)/|V|, the l of the paper's complexity analysis.
func (idx *Index) AvgLabelSize() float64 {
	n := idx.G.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(idx.NumEntries()) / float64(n)
}

// Fork returns a copy-on-write copy of the index bound to g, which must be
// a fork of idx.G taken at the same moment. The label-table header and rank
// array are copied (O(|V|)) and the small highway matrix is cloned, but
// every per-vertex label's backing array stays shared with idx until the
// fork first writes to it — an update batch therefore copies only the
// labels it actually touches, while idx keeps serving queries unchanged.
//
// Snapshot discipline applies: idx must be treated as frozen once forked.
func (idx *Index) Fork(g *graph.Graph) *Index {
	return &Index{
		G:         g,
		Landmarks: idx.Landmarks, // immutable after construction
		H:         idx.H.Clone(),
		L:         append([]Label(nil), idx.L...),
		rankOf:    idx.rankOf, // immutable after construction
		rankArr:   append([]uint16(nil), idx.rankArr...),
		shared:    bitset.NewAllSet(len(idx.L)),
		mapRef:    idx.mapRef, // label slices may still alias the mapping
		Workers:   idx.Workers,

		// The fork mutates, so it starts unpacked; remembering the parent
		// lets its Pack reuse whatever chunks the parent's arena holds by
		// the time the fork itself is frozen.
		parent: idx,
	}
}

// Clone deep-copies the index (sharing the graph pointer), for test oracles
// that compare incremental maintenance against rebuilds.
func (idx *Index) Clone() *Index {
	c := newIndex(idx.G, idx.Landmarks)
	c.H = idx.H.Clone()
	for v, l := range idx.L {
		if len(l) > 0 {
			c.L[v] = append(Label(nil), l...)
		}
	}
	return c
}
