package hcl

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// adj is a small mutable test graph: out- and in-lists, one shared list
// per vertex when undirected.
type adj struct {
	directed bool
	out, in  [][]uint32
}

func newAdj(n int, directed bool) *adj {
	g := &adj{directed: directed, out: make([][]uint32, n), in: make([][]uint32, n)}
	if !directed {
		g.in = g.out
	}
	return g
}

func (g *adj) has(a, b uint32) bool { return slices.Contains(g.out[a], b) }

func (g *adj) add(a, b uint32) {
	g.out[a] = append(g.out[a], b)
	g.in[b] = append(g.in[b], a)
}

func (g *adj) remove(a, b uint32) {
	drop := func(l []uint32, v uint32) []uint32 { return slices.Delete(l, slices.Index(l, v), slices.Index(l, v)+1) }
	g.out[a] = drop(g.out[a], b)
	g.in[b] = drop(g.in[b], a)
}

// pass returns the children and parents of label direction dir: out- then
// in-arcs forward, the reverse backward.
func (g *adj) pass(dir int) (children, parents func(uint32) []uint32) {
	out := func(v uint32) []uint32 { return g.out[v] }
	in := func(v uint32) []uint32 { return g.in[v] }
	if dir == 1 {
		return in, out
	}
	return out, in
}

// bfsFrom returns the distances from s over children.
func bfsFrom(n int, s uint32, children func(uint32) []uint32) []graph.Dist {
	dist := make([]graph.Dist, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[s] = 0
	q := []uint32{s}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, w := range children(v) {
			if dist[w] == graph.Inf {
				dist[w] = dist[v] + 1
				q = append(q, w)
			}
		}
	}
	return dist
}

// build constructs the labelling of g from scratch.
func (g *adj) build(t *testing.T, lms []uint32) *Core {
	t.Helper()
	dirs := 1
	if g.directed {
		dirs = 2
	}
	c, err := NewCore(Kind{Magic: "TEST", Dirs: dirs}, len(g.out), lms)
	if err != nil {
		t.Fatal(err)
	}
	Construct(&c, &Scratches, 1, func(ws *Scratch, d *Delta) {
		children, parents := g.pass(d.Dir)
		c.RebuildBFS(ws, d, children, parents)
	})
	return &c
}

// task is one insertion pass: the arc's endpoint farther from the landmark
// and its new distance.
type task struct {
	head uint32
	pi   graph.Dist
}

// insert adds a→b to g and repairs c with RepairInsertion, checking each
// pass's affected set against BFS on the changed graph. It returns the
// merged deltas.
func insert(t *testing.T, c *Core, g *adj, a, b uint32) []Delta {
	t.Helper()
	var ds []Delta
	var ts []task
	for r := range c.Landmarks {
		for dir := 0; dir < c.kind.Dirs; dir++ {
			tail, head := a, b
			if dir == 1 {
				tail, head = b, a
			}
			dt, dh := c.PassDist(dir, uint16(r), tail), c.PassDist(dir, uint16(r), head)
			if !g.directed && dh < dt {
				tail, head, dt, dh = head, tail, dh, dt
			}
			if dt == graph.Inf || dh <= dt {
				continue // the arc shortens nothing (Lemma 4.3)
			}
			ds = append(ds, Delta{Rank: uint16(r), Dir: dir})
			ts = append(ts, task{head, dt + 1})
		}
	}
	g.add(a, b)
	affected := make([][]uint32, len(ds))
	Repair(c, &Scratches, ds, false, func(ws *Scratch, i int, d *Delta) {
		children, parents := g.pass(d.Dir)
		sentinel := []uint32{math.MaxUint32}
		out := c.RepairInsertion(ws, d, ts[i].head, ts[i].pi, children, parents, sentinel)
		if out[0] != math.MaxUint32 {
			t.Errorf("RepairInsertion overwrote out's prefix")
		}
		affected[i] = out[1:]
	})
	// Λ_r is exactly the vertices with a shortest path through the arc.
	n := len(g.out)
	for i, d := range ds {
		children, _ := g.pass(d.Dir)
		fromRoot := bfsFrom(n, c.Landmarks[d.Rank], children)
		fromHead := bfsFrom(n, ts[i].head, children)
		var want []uint32
		for v := range n {
			if fromHead[v] != graph.Inf && ts[i].pi+fromHead[v] == fromRoot[v] {
				want = append(want, uint32(v))
			}
		}
		got := slices.Clone(affected[i])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("insert %d→%d rank %d dir %d: affected %v, want %v", a, b, d.Rank, d.Dir, got, want)
		}
	}
	return ds
}

// remove deletes a→b from g and repairs c with RepairDeletion on every pass
// whose shortest-path DAG held the arc.
func remove(c *Core, g *adj, a, b uint32) {
	var ds []Delta
	var heads []uint32
	for r := range c.Landmarks {
		for dir := 0; dir < c.kind.Dirs; dir++ {
			tail, head := a, b
			if dir == 1 {
				tail, head = b, a
			}
			dt, dh := c.PassDist(dir, uint16(r), tail), c.PassDist(dir, uint16(r), head)
			if !g.directed && dh < dt {
				tail, head, dt, dh = head, tail, dh, dt
			}
			if dt == graph.Inf || dt+1 != dh {
				continue // not on the DAG: nothing changes
			}
			ds = append(ds, Delta{Rank: uint16(r), Dir: dir})
			heads = append(heads, head)
		}
	}
	g.remove(a, b)
	Repair(c, &Scratches, ds, true, func(ws *Scratch, i int, d *Delta) {
		children, parents := g.pass(d.Dir)
		c.RepairDeletion(ws, d, heads[i], children, parents)
	})
}

// TestLocalRepairsMatchBuild replays random insert/delete streams through
// the two local repairs, undirected and directed, and checks after every
// update that the labelling equals a fresh construction.
func TestLocalRepairsMatchBuild(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 12 + rng.Intn(20)
			g := newAdj(n, directed)
			var arcs [][2]uint32
			for range n + rng.Intn(2*n) {
				a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				if a != b && !g.has(a, b) && (directed || !g.has(b, a)) {
					g.add(a, b)
					arcs = append(arcs, [2]uint32{a, b})
				}
			}
			lms := make([]uint32, 1+rng.Intn(5))
			for i, v := range rng.Perm(n)[:len(lms)] {
				lms[i] = uint32(v)
			}
			c := g.build(t, lms)
			for op := range 40 {
				if len(arcs) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(arcs))
					remove(c, g, arcs[i][0], arcs[i][1])
					arcs = slices.Delete(arcs, i, i+1)
				} else {
					a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					if a == b || g.has(a, b) || (!directed && g.has(b, a)) {
						continue
					}
					insert(t, c, g, a, b)
					arcs = append(arcs, [2]uint32{a, b})
				}
				if err := c.EqualLabels(g.build(t, lms)); err != nil {
					t.Fatalf("directed=%v seed %d op %d: %v", directed, seed, op, err)
				}
			}
		}
	}
}

// TestInsertionAtEqualDistance pins the edits of insertions that leave a
// vertex's distance alone but give it a new shortest-path parent: a
// covered parent removes its entry, and an uncovered one re-sets the
// unchanged entry, as the paper's Algorithm 3 does.
func TestInsertionAtEqualDistance(t *testing.T) {
	// Landmarks 0 and 1 are adjacent; 0-2-3 and 0-4-5 are paths, so 3 and
	// 5 hold entries of landmark 0 at distance 2.
	g := newAdj(6, false)
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {2, 3}, {0, 4}, {4, 5}} {
		g.add(e[0], e[1])
	}
	c := g.build(t, []uint32{0, 1})
	for _, v := range []uint32{3, 5} {
		if d, ok := c.Entry(0, v, 0); !ok || d != 2 {
			t.Fatalf("entry (%d, rank 0) = %d,%v before, want 2", v, d, ok)
		}
	}

	// 1-3: vertex 3 gains the landmark 1 as a parent and becomes covered.
	ds := insert(t, c, g, 1, 3)
	if _, ok := c.Entry(0, 3, 0); ok {
		t.Error("vertex 3 kept its rank-0 entry behind a landmark parent")
	}
	if ch := ds[0].Changes(); ds[0].Rank != 0 || ch != (Changes{Removed: 1}) {
		t.Errorf("rank %d edits %+v, want one removal on rank 0", ds[0].Rank, ch)
	}
	if err := c.EqualLabels(g.build(t, []uint32{0, 1})); err != nil {
		t.Fatal(err)
	}

	// 2-5: vertex 5 gains the uncovered parent 2 and keeps its entry, which
	// the repair sets again.
	ds = insert(t, c, g, 2, 5)
	if ch := ds[0].Changes(); ds[0].Rank != 0 || ch != (Changes{Added: 1}) {
		t.Errorf("rank %d edits %+v, want one set on rank 0", ds[0].Rank, ch)
	}
	if d, ok := c.Entry(0, 5, 0); !ok || d != 2 {
		t.Errorf("entry (5, rank 0) = %d,%v after, want 2", d, ok)
	}
	if err := c.EqualLabels(g.build(t, []uint32{0, 1})); err != nil {
		t.Fatal(err)
	}
}

// TestScratchEpochWraps runs a repair on scratch whose epoch is about to
// wrap: stamps left from the previous cycle must not read as current.
func TestScratchEpochWraps(t *testing.T) {
	g := newAdj(8, false)
	for i := uint32(0); i+1 < 8; i++ {
		g.add(i, i+1)
	}
	c := g.build(t, []uint32{0, 7})
	g.add(0, 4)
	children, parents := g.pass(0)
	run := func(ws *Scratch) Delta {
		d := Delta{Rank: 0}
		c.RepairInsertion(ws, &d, 4, 1, children, parents, nil)
		return d
	}
	want := run(new(Scratch))
	ws := new(Scratch)
	ws.next(8)
	for i := range ws.slots {
		ws.slots[i] = slot{stamp: 1, flags: inA} // stale: affected, in the first epoch after the wrap
	}
	ws.epoch = math.MaxUint32
	if got := run(ws); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the wrap: %+v, want %+v", got, want)
	}
	if ws.epoch != 1 {
		t.Errorf("epoch after the wrap = %d, want 1", ws.epoch)
	}
}

func TestCountDistinct(t *testing.T) {
	g := newAdj(10, false)
	c := g.build(t, []uint32{0})
	got := c.CountDistinct(func(see func(uint32)) {
		for _, v := range []uint32{3, 1, 3, 9, 1, 0} {
			see(v)
		}
	})
	if got != 4 {
		t.Errorf("CountDistinct = %d, want 4", got)
	}
}

func TestStats(t *testing.T) {
	ds := []Delta{{Rank: 0}, {Rank: 1}}
	ds[0].Set(4, 2)
	ds[0].Remove(5)
	ds[1].Cell(0, 3)
	var st Stats
	st.AddEdits(ds)
	want := Stats{AffectedSum: 3, EntriesAdded: 1, EntriesRemoved: 1, HighwayUpdates: 1}
	if st != want {
		t.Fatalf("AddEdits: %+v, want %+v", st, want)
	}
	if st.Affected() != 3 {
		t.Errorf("Affected without a union = %d, want the sum 3", st.Affected())
	}
	st.AffectedUnion = 2
	if st.Affected() != 2 {
		t.Errorf("Affected with a union = %d, want 2", st.Affected())
	}
	agg := Stats{LandmarksTotal: 7}
	agg.Plus(st)
	agg.Plus(Stats{LandmarksTotal: 9, LandmarksSkipped: 1})
	want = Stats{LandmarksTotal: 7, LandmarksSkipped: 1, AffectedSum: 3, AffectedUnion: 2, EntriesAdded: 1, EntriesRemoved: 1, HighwayUpdates: 1}
	if agg != want {
		t.Errorf("Plus: %+v, want %+v", agg, want)
	}
}
