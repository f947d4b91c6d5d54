package hcl

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// Core is the labelling the three variants share: the landmarks and their
// rank table, the k×k highway of landmark-to-landmark distances, one or two
// label directions, and the repair knobs. Labelled embeds it and adds the
// graph, whose substrate (substrate.go) supplies its edit, adjacency and
// searches; fork, serialisation, the highway upper bound, the
// cover audit (verify.go), the repair engine (repair.go), the update
// checks (check.go), the edge updates with their Lemma 4.3 tests and
// statistics (update.go) and the local insertion and deletion repairs
// (delete.go) of all three variants are implemented here once.
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

	// dirs[:kind.Dirs] are the label tables (see Packed): the only one of
	// the undirected and weighted variants, forward then backward on the
	// directed one. Queries read them, the repair merge writes them, and
	// the stream codec saves and loads them as they are.
	dirs [2]Packed

	// Workers bounds the fan-out of the per-landmark repair tasks and of
	// the merge's per-chunk rewrites: 0 (the default) resolves to
	// GOMAXPROCS, 1 forces the serial path. Every worker count produces a
	// byte-identical labelling and identical update statistics.
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
		c.dirs[d] = newPacked(n)
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

// Label returns the entry span of vertex v in label direction dir. It
// aliases the labelling and must be treated as read-only.
func (c *Core) Label(dir int, v uint32) []Entry { return c.dirs[dir].Label(v) }

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

// Packed returns the label table of direction dir. It is the labelling's
// own: read it, do not write it.
func (c *Core) Packed(dir int) *Packed { return &c.dirs[dir] }

// PackedLabels is Packed(0), kept only because the benchmark module's
// layer trace still calls it.
func (c *Core) PackedLabels() *Packed { return &c.dirs[0] }

// Pack does nothing: the labels are always packed. It is kept only
// because the benchmark module's layer trace still calls it.
func (c *Core) Pack() {}

// PackedBytes is the memory the label tables of every direction hold (see
// Packed.ArenaBytes).
func (c *Core) PackedBytes() int64 {
	var n int64
	for d := range c.dirs[:c.kind.Dirs] {
		n += c.dirs[d].ArenaBytes()
	}
	return n
}

// EnsureVertex grows the rank and label tables to cover vertex v, for use
// after the graph gained vertices.
func (c *Core) EnsureVertex(v uint32) {
	if uint32(len(c.rankArr)) > v {
		return
	}
	for uint32(len(c.rankArr)) <= v {
		c.rankArr = append(c.rankArr, noRank)
	}
	for d := range c.dirs[:c.kind.Dirs] {
		c.dirs[d].grow(len(c.rankArr))
	}
}

// Fork returns a copy-on-write copy of the core. Only the small highway
// (k²) and, per label table, the chunk directory and two bits per chunk
// are copied; the rank table is shared, and the fork's first write to a
// chunk copies that chunk's span table and overflow (see internal/cow) —
// an update batch copies only what it touches, while c keeps serving
// queries unchanged. The fork
// starts with c's repair knobs; an owner that retunes them sets them on
// the fork, never on c, which readers may still be querying.
//
// Snapshot discipline applies: c must be treated as frozen once forked.
func (c *Core) Fork() Core {
	n := len(c.rankArr)
	f := Core{
		Landmarks:   c.Landmarks, // immutable after construction
		kind:        c.kind,
		hw:          append([]graph.Dist(nil), c.hw...),
		rankArr:     c.rankArr[:n:n], // the fork's first append copies it
		Workers:     c.Workers,
		RepairTimer: c.RepairTimer,
	}
	for d := range c.dirs[:c.kind.Dirs] {
		f.dirs[d] = c.dirs[d].Fork()
	}
	return f
}

// MappedBytes returns the size of the mmap'd checkpoint region the
// labelling still holds alive, or 0 when it never aliased one — the mapped
// half of the Stats PackedBytes/MappedBytes pair.
func (c *Core) MappedBytes() int64 { return c.dirs[0].MappedBytes() }

// NumEntries returns size(L), the total number of label entries over every
// direction.
func (c *Core) NumEntries() int64 {
	var n int64
	for d := range c.dirs[:c.kind.Dirs] {
		n += c.dirs[d].NumEntries()
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
		a, b := &c.dirs[d], &o.dirs[d]
		if a.NumVertices() != b.NumVertices() {
			return fmt.Errorf("label table %d size differs: %d vs %d", d, a.NumVertices(), b.NumVertices())
		}
		for v := uint32(0); int(v) < a.NumVertices(); v++ {
			if la, lb := Label(a.Label(v)), Label(b.Label(v)); !la.Equal(lb) {
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
