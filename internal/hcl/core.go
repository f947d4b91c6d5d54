package hcl

import (
	"fmt"
	"time"

	"repro/internal/arena"
	"repro/internal/cow"
	"repro/internal/graph"
)

// Core is the labelling the three variants share: the landmarks and their
// rank table, the k×k highway of landmark-to-landmark distances, one or two
// label directions, and the repair knobs. hcl.Index, dhcl.Index and
// whcl.Index embed it and add their graph, their query kernels and the
// affected tests of their updates; fork, pack, serialisation, the repair
// engine (repair.go) and the local insertion and deletion repairs of the
// unit-weight variants (delete.go) are implemented here once.
//
// Queries are safe for any number of concurrent readers; mutations require
// exclusive access.
type Core struct {
	Landmarks []uint32 // rank -> vertex id

	kind Kind

	// hw is the row-major k×k highway: hw[i*k+j] = d(r_i, r_j), the
	// directed distance r_i → r_j on the directed variant. Single-direction
	// kinds keep it symmetric: every write goes to both triangles.
	hw []graph.Dist

	// rankArr maps vertex id -> rank, noRank if not a landmark. Forks share
	// it: it only grows, and every fork's first append copies it (Fork
	// hands it on capacity-clamped).
	rankArr []uint16

	// dirs[:kind.Dirs] are the label tables: the only one of the undirected
	// and weighted variants, forward then backward on the directed one.
	dirs [2]labels

	// parent remembers the core this fork was taken from until the fork's
	// own Pack runs, which reads the parent's packed forms then — not at
	// fork time — so a fork taken while its parent is still packing (the
	// pipelined Store repairs epoch N+1 while N packs) still gets the delta
	// repack. Pack clears it so ancestor chains are not pinned.
	parent *Core

	// mapRef pins the mmap'd checkpoint this labelling was attached to by a
	// mapped load, if any. Label slices and packed chunks may alias the
	// mapped bytes for the rest of its life (copy-on-write repairs migrate
	// labels to the heap one at a time, never all at once), so every fork
	// inherits the reference and the region is unmapped only when the last
	// descendant snapshot is collected.
	mapRef *arena.Mapping

	// Workers bounds the fan-out of the per-landmark repair tasks and of
	// Pack's per-chunk flattening: 0 (the default) resolves to GOMAXPROCS,
	// 1 forces the serial path. Every worker count produces a byte-identical
	// labelling and identical update statistics.
	Workers int

	// RepairTimer, when non-nil, observes the wall time of every repair
	// task. It is called from worker goroutines and must be safe for
	// concurrent use.
	RepairTimer func(time.Duration)
}

// Kind is a variant's labelling shape: the magic naming its label stream
// and its number of label directions — two (forward, backward) for
// directed graphs, whose highway is asymmetric; one otherwise.
type Kind struct {
	Magic string
	Dirs  int
}

// labels is one label direction: the mutable per-vertex table, which is the
// write representation and the source of truth (copy-on-write across
// forks), and the packed read form.
type labels struct {
	L cow.Table[Entry]

	// packed is the CSR read form of L, non-nil only while the labelling is
	// publishable (built by Pack, dropped by the first label write);
	// queries prefer it.
	packed *Packed
}

// noRank marks non-landmark vertices in the rank table.
const noRank = ^uint16(0)

// maxLandmarks bounds |R|: ranks are u16 and noRank takes the last value.
const maxLandmarks = 1<<16 - 1

// validate checks the landmark set of a labelling over n vertices: at
// least one and at most maxLandmarks landmarks, all distinct vertices. When
// hw is non-nil it must be the k×k highway over them, with a zero diagonal
// and, for symmetric kinds, equal triangles. Every construction and stream
// read runs through it, so untrusted streams cannot alias two ranks to one
// vertex.
func validate(landmarks []uint32, hw []graph.Dist, n int, symmetric bool) error {
	k := len(landmarks)
	if k == 0 {
		return fmt.Errorf("need at least one landmark")
	}
	if k > maxLandmarks {
		return fmt.Errorf("at most %d landmarks supported, got %d", maxLandmarks, k)
	}
	seen := make(map[uint32]bool, k)
	for _, v := range landmarks {
		if int64(v) >= int64(n) {
			return fmt.Errorf("landmark %d is not a vertex of the graph", v)
		}
		if seen[v] {
			return fmt.Errorf("duplicate landmark %d", v)
		}
		seen[v] = true
	}
	if hw == nil {
		return nil
	}
	for i := 0; i < k; i++ {
		if d := hw[i*k+i]; d != 0 {
			return fmt.Errorf("highway diagonal at rank %d is %d, want 0", i, d)
		}
		for j := i + 1; symmetric && j < k; j++ {
			if hw[i*k+j] != hw[j*k+i] {
				return fmt.Errorf("highway not symmetric at ranks (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// NewCore returns the empty labelling of the given kind over n vertices:
// no label entries and a highway of Inf off the zero diagonal, ready for
// Construct.
func NewCore(kind Kind, n int, landmarks []uint32) (Core, error) {
	if err := validate(landmarks, nil, n, kind.Dirs == 1); err != nil {
		return Core{}, err
	}
	k := len(landmarks)
	hw := make([]graph.Dist, k*k)
	for i := range hw {
		hw[i] = graph.Inf
	}
	for i := 0; i < k; i++ {
		hw[i*k+i] = 0
	}
	c := Core{Landmarks: append([]uint32(nil), landmarks...), kind: kind, hw: hw}
	for d := 0; d < kind.Dirs; d++ {
		c.dirs[d].L = cow.Make[Entry](n)
	}
	c.indexRanks(n)
	return c, nil
}

// indexRanks builds the rank table over n vertices.
func (c *Core) indexRanks(n int) {
	c.rankArr = make([]uint16, n)
	for i := range c.rankArr {
		c.rankArr[i] = noRank
	}
	for r, v := range c.Landmarks {
		c.rankArr[v] = uint16(r)
	}
}

// NumLandmarks returns |R|.
func (c *Core) NumLandmarks() int { return len(c.Landmarks) }

// Rank returns the landmark rank of vertex v, if v is a landmark.
func (c *Core) Rank(v uint32) (uint16, bool) {
	r := c.rankArr[v]
	return r, r != noRank
}

// IsLandmark reports whether v is a landmark. A vertex beyond the
// labelling, which a batch being validated may have added, is not one.
func (c *Core) IsLandmark(v uint32) bool {
	return int(v) < len(c.rankArr) && c.rankArr[v] != noRank
}

// Highway returns the highway cell (i,j): d(r_i, r_j), directed r_i → r_j
// on the directed variant.
func (c *Core) Highway(i, j uint16) graph.Dist {
	return c.hw[int(i)*len(c.Landmarks)+int(j)]
}

// Row returns highway row i, aliasing the matrix: the distances from r_i
// to every landmark. The query kernels hoist one row per outer label entry
// so the inner loop indexes a k-element slice.
func (c *Core) Row(i uint16) []graph.Dist {
	k := len(c.Landmarks)
	return c.hw[int(i)*k : int(i)*k+k]
}

// setHighway writes cell (i,j), and (j,i) too on symmetric kinds.
func (c *Core) setHighway(i, j uint16, d graph.Dist) {
	k := len(c.Landmarks)
	c.hw[int(i)*k+int(j)] = d
	if c.kind.Dirs == 1 {
		c.hw[int(j)*k+int(i)] = d
	}
}

// Label returns the entry span of vertex v in label direction dir from the
// packed arena when the labelling is packed, else from the mutable table.
// The query paths read labels only through it, so both representations
// answer identically.
func (c *Core) Label(dir int, v uint32) []Entry {
	if p := c.dirs[dir].packed; p != nil {
		return p.Label(v)
	}
	return c.dirs[dir].L.Row(v)
}

// Entry returns the distance of landmark rank r in label direction dir of
// vertex v, if v's label holds one.
func (c *Core) Entry(dir int, v uint32, r uint16) (graph.Dist, bool) {
	return FindEntry(c.Label(dir, v), r)
}

// PassDist returns the exact distance between landmark rank r and vertex v
// in label direction dir by Equation 1: d(r, v) for the forward (or only)
// direction, d(v, r) for the backward one.
func (c *Core) PassDist(dir int, r uint16, v uint32) graph.Dist {
	if s := c.rankArr[v]; s != noRank {
		if dir == 1 {
			return c.Highway(s, r)
		}
		return c.Highway(r, s)
	}
	if dir == 0 {
		return LandmarkVia(c.Row(r), c.Label(0, v))
	}
	best := graph.Inf
	for _, e := range c.Label(1, v) {
		if t := graph.AddDist(e.D, c.Highway(e.Rank, r)); t < best {
			best = t
		}
	}
	return best
}

// Labels returns the mutable label table of direction dir. It is the
// labelling's own: read it, do not write it.
func (c *Core) Labels(dir int) *cow.Table[Entry] { return &c.dirs[dir].L }

// Packed returns the packed read form of direction dir, or nil when the
// labelling has unpublished label writes (or was never packed).
func (c *Core) Packed(dir int) *Packed { return c.dirs[dir].packed }

// PackedLabels returns the packed read form of the first label direction
// (the only one of the undirected and weighted variants).
func (c *Core) PackedLabels() *Packed { return c.dirs[0].packed }

// PackedBytes is the storage charged for the packed forms of every
// direction, zero when the labelling is not packed.
func (c *Core) PackedBytes() int64 {
	var n int64
	for d := range c.dirs[:c.kind.Dirs] {
		if p := c.dirs[d].packed; p != nil {
			n += p.ArenaBytes()
		}
	}
	return n
}

// unpack drops the packed read forms; every label write goes through here.
func (c *Core) unpack() { c.dirs[0].packed, c.dirs[1].packed = nil, nil }

// EnsureVertex grows the rank and label tables to cover vertex v, for use
// after the graph gained vertices.
func (c *Core) EnsureVertex(v uint32) {
	if uint32(len(c.rankArr)) > v {
		return
	}
	c.unpack() // the packed forms no longer cover every vertex
	for uint32(len(c.rankArr)) <= v {
		c.rankArr = append(c.rankArr, noRank)
	}
	for d := range c.dirs[:c.kind.Dirs] {
		c.dirs[d].L.Grow(len(c.rankArr))
	}
}

// Fork returns a copy-on-write copy of the core. Only the small highway
// (k²) and, per label table, the chunk directory and one bit per vertex
// are copied; the rank table is shared, and the fork's first write to a
// label copies that label's chunk of headers and then the label (see
// internal/cow) — an update batch copies only what it touches, while c
// keeps serving queries unchanged. The fork inherits the repair knobs and
// starts unpacked: remembering the parent lets its Pack reuse whatever
// chunks the parent's arenas hold by the time the fork itself is frozen.
//
// Snapshot discipline applies: c must be treated as frozen once forked.
func (c *Core) Fork() Core {
	n := len(c.rankArr)
	f := Core{
		Landmarks:   c.Landmarks, // immutable after construction
		kind:        c.kind,
		hw:          append([]graph.Dist(nil), c.hw...),
		rankArr:     c.rankArr[:n:n], // the fork's first append copies it
		parent:      c,
		mapRef:      c.mapRef, // labels may still alias the mapping
		Workers:     c.Workers,
		RepairTimer: c.RepairTimer,
	}
	for d := range c.dirs[:c.kind.Dirs] {
		f.dirs[d].L = c.dirs[d].L.Fork()
	}
	return f
}

// Pack builds the packed read form of every label direction (see Packed).
// On a fork of a packed parent it is delta-aware: chunks whose labels the
// fork never touched are reused from the parent's arenas by reference.
// Pack is idempotent, and any later label write drops the packed forms
// again, so it is meaningful only on labellings about to be frozen (an
// epoch publish, or a read-mostly plain index).
func (c *Core) Pack() {
	for d := range c.dirs[:c.kind.Dirs] {
		l := &c.dirs[d]
		if l.packed != nil {
			continue
		}
		var prev *Packed
		if c.parent != nil {
			prev = c.parent.dirs[d].packed
		}
		l.packed = PackParallel(&l.L, prev, c.Workers)
	}
	c.parent = nil
}

// MappedBytes returns the size of the mmap'd checkpoint region the
// labelling still holds alive, or 0 when it is fully heap-resident — the
// mapped half of the Stats PackedBytes/MappedBytes pair.
func (c *Core) MappedBytes() int64 {
	if c.mapRef != nil {
		return c.mapRef.Len()
	}
	for d := range c.dirs[:c.kind.Dirs] {
		if p := c.dirs[d].packed; p != nil && p.MappedBytes() != 0 {
			return p.MappedBytes()
		}
	}
	return 0
}

// NumEntries returns size(L), the total number of label entries over every
// direction.
func (c *Core) NumEntries() int64 {
	var n int64
	for d := range c.dirs[:c.kind.Dirs] {
		t := &c.dirs[d].L
		for ci := 0; ci < t.NumChunks(); ci++ {
			for _, l := range t.Chunk(ci) {
				n += int64(len(l))
			}
		}
	}
	return n
}

// Sizes returns NumEntries and the storage charged for the labelling:
// EntryBytes per label entry plus the highway matrix.
func (c *Core) Sizes() (entries, bytes int64) {
	entries = c.NumEntries()
	return entries, entries*EntryBytes + int64(len(c.hw))*4
}

// Bytes returns the storage charged for the labelling (see Sizes).
func (c *Core) Bytes() int64 {
	_, bytes := c.Sizes()
	return bytes
}

// EqualLabels reports whether two labellings hold identical labels and
// highway, returning a descriptive error on the first difference. The
// minimal labelling of a graph for a fixed landmark set is unique, so tests
// use it to assert that maintenance reproduces a fresh build exactly.
func (c *Core) EqualLabels(o *Core) error {
	for d := range c.dirs[:c.kind.Dirs] {
		a, b := &c.dirs[d].L, &o.dirs[d].L
		if a.Len() != b.Len() {
			return fmt.Errorf("label table %d size differs: %d vs %d", d, a.Len(), b.Len())
		}
		for v := uint32(0); int(v) < a.Len(); v++ {
			if la, lb := Label(a.Row(v)), Label(b.Row(v)); !la.Equal(lb) {
				return fmt.Errorf("label %d of vertex %d differs: %v vs %v", d, v, la, lb)
			}
		}
	}
	if len(c.hw) != len(o.hw) {
		return fmt.Errorf("landmark count differs: %d vs %d", len(c.Landmarks), len(o.Landmarks))
	}
	for i := range c.hw {
		if c.hw[i] != o.hw[i] {
			return fmt.Errorf("highway cell %d differs: %s vs %s", i, distString(c.hw[i]), distString(o.hw[i]))
		}
	}
	return nil
}

func distString(d graph.Dist) string {
	if d == graph.Inf {
		return "inf"
	}
	return fmt.Sprintf("%d", d)
}
