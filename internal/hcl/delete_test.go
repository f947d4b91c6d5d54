package hcl

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/wgraph"
)

// adj is a small mutable test graph: out- and in-lists of arcs, one shared
// list per vertex when undirected. Arcs are bare targets or weighted.
type adj[A Arc] struct {
	directed bool
	out, in  [][]A
}

func newAdj[A Arc](n int, directed bool) *adj[A] {
	g := &adj[A]{directed: directed, out: make([][]A, n), in: make([][]A, n)}
	if !directed {
		g.in = g.out
	}
	return g
}

// arcTo returns the arc to v of weight w, which a unit arc drops.
func arcTo[A Arc](v uint32, w graph.Dist) A {
	var a A
	switch p := any(&a).(type) {
	case *uint32:
		*p = v
	case *wgraph.Arc:
		*p = wgraph.Arc{To: v, W: w}
	}
	return a
}

func (g *adj[A]) has(a, b uint32) bool {
	return slices.ContainsFunc(g.out[a], func(x A) bool { return to(x) == b })
}

// weight returns the weight of the arc a→b, 1 on unit arcs.
func (g *adj[A]) weight(a, b uint32) graph.Dist {
	i := slices.IndexFunc(g.out[a], func(x A) bool { return to(x) == b })
	return plus(0, g.out[a][i])
}

func (g *adj[A]) add(a, b uint32, w graph.Dist) {
	g.out[a] = append(g.out[a], arcTo[A](b, w))
	g.in[b] = append(g.in[b], arcTo[A](a, w))
}

func (g *adj[A]) remove(a, b uint32) {
	drop := func(l []A, v uint32) []A { return slices.DeleteFunc(l, func(x A) bool { return to(x) == v }) }
	g.out[a] = drop(g.out[a], b)
	g.in[b] = drop(g.in[b], a)
}

// pass returns the children and parents of label direction dir: out- then
// in-arcs forward, the reverse backward.
func (g *adj[A]) pass(dir int) (children, parents func(uint32) []A) {
	out := func(v uint32) []A { return g.out[v] }
	in := func(v uint32) []A { return g.in[v] }
	if dir == 1 {
		return in, out
	}
	return out, in
}

// distFrom returns the distances from s over children, by a quadratic
// Dijkstra.
func distFrom[A Arc](n int, s uint32, children func(uint32) []A) []graph.Dist {
	dist := make([]graph.Dist, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[s] = 0
	done := make([]bool, n)
	for {
		v := -1
		for u := range n {
			if !done[u] && dist[u] != graph.Inf && (v < 0 || dist[u] < dist[v]) {
				v = u
			}
		}
		if v < 0 {
			return dist
		}
		done[v] = true
		for _, a := range children(uint32(v)) {
			dist[to(a)] = min(dist[to(a)], plus(dist[v], a))
		}
	}
}

// build constructs the labelling of g from scratch: the covered-flag BFS
// on unit arcs, the covered-flag Dijkstra on weighted ones.
func (g *adj[A]) build(t *testing.T, lms []uint32) *Core {
	t.Helper()
	dirs := 1
	if g.directed {
		dirs = 2
	}
	c, err := NewCore(Kind{Magic: "TEST", Dirs: dirs}, len(g.out), lms)
	if err != nil {
		t.Fatal(err)
	}
	Construct(&c, 1, func(ws *Scratch, d *Delta) {
		children, parents := g.pass(d.Dir)
		switch ch := any(children).(type) {
		case func(uint32) []uint32:
			c.RebuildBFS(ws, d, ch, any(parents).(func(uint32) []uint32))
		case func(uint32) []wgraph.Arc:
			c.RebuildDijkstra(ws, d, ch)
		}
	})
	return &c
}

// task is one insertion pass: the arc's endpoint farther from the landmark
// and its new distance.
type task struct {
	head uint32
	pi   graph.Dist
}

// insert adds a→b of weight w to g and repairs c with RepairInsertion,
// checking each pass's affected set against Dijkstra on the changed graph.
// It returns the merged deltas.
func insert[A Arc](t *testing.T, c *Core, g *adj[A], a, b uint32, w graph.Dist) []Delta {
	t.Helper()
	var ds []Delta
	var ts []task
	w = plus(0, arcTo[A](b, w)) // 1 on unit arcs
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
			pi := graph.AddDist(dt, w)
			if dt == graph.Inf || pi > dh {
				continue // the arc shortens nothing (Lemma 4.3)
			}
			ds = append(ds, Delta{Rank: uint16(r), Dir: dir})
			ts = append(ts, task{head, pi})
		}
	}
	g.add(a, b, w)
	affected := make([][]uint32, len(ds))
	Repair(c, ds, false, func(ws *Scratch, i int, d *Delta) {
		children, parents := g.pass(d.Dir)
		sentinel := []uint32{math.MaxUint32}
		out := RepairInsertion(c, ws, d, ts[i].head, ts[i].pi, children, parents, sentinel)
		if out[0] != math.MaxUint32 {
			t.Errorf("RepairInsertion overwrote out's prefix")
		}
		affected[i] = out[1:]
	})
	// Λ_r is exactly the vertices with a shortest path through the arc.
	n := len(g.out)
	for i, d := range ds {
		children, _ := g.pass(d.Dir)
		fromRoot := distFrom(n, c.Landmarks[d.Rank], children)
		fromHead := distFrom(n, ts[i].head, children)
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
func remove[A Arc](c *Core, g *adj[A], a, b uint32) {
	var ds []Delta
	var heads []uint32
	w := g.weight(a, b)
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
			if dt == graph.Inf || graph.AddDist(dt, w) != dh {
				continue // not on the DAG: nothing changes
			}
			ds = append(ds, Delta{Rank: uint16(r), Dir: dir})
			heads = append(heads, head)
		}
	}
	g.remove(a, b)
	Repair(c, ds, true, func(ws *Scratch, i int, d *Delta) {
		children, parents := g.pass(d.Dir)
		RepairDeletion(c, ws, d, heads[i], children, parents)
	})
}

// TestLocalRepairsMatchBuild replays random insert/delete streams through
// the two local repairs — undirected and directed on unit arcs, and
// undirected with weights 1–8 — and checks after every update that the
// labelling equals a fresh construction.
func TestLocalRepairsMatchBuild(t *testing.T) {
	t.Run("undirected", func(t *testing.T) { replayLocalRepairs[uint32](t, false) })
	t.Run("directed", func(t *testing.T) { replayLocalRepairs[uint32](t, true) })
	t.Run("weighted", func(t *testing.T) { replayLocalRepairs[wgraph.Arc](t, false) })
}

func replayLocalRepairs[A Arc](t *testing.T, directed bool) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(20)
		g := newAdj[A](n, directed)
		var arcs [][2]uint32
		for range n + rng.Intn(2*n) {
			a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if a != b && !g.has(a, b) && (directed || !g.has(b, a)) {
				g.add(a, b, graph.Dist(1+rng.Intn(8)))
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
				insert(t, c, g, a, b, graph.Dist(1+rng.Intn(8)))
				arcs = append(arcs, [2]uint32{a, b})
			}
			if err := c.EqualLabels(g.build(t, lms)); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
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
	g := newAdj[uint32](6, false)
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {2, 3}, {0, 4}, {4, 5}} {
		g.add(e[0], e[1], 1)
	}
	c := g.build(t, []uint32{0, 1})
	for _, v := range []uint32{3, 5} {
		if d, ok := c.Entry(0, v, 0); !ok || d != 2 {
			t.Fatalf("entry (%d, rank 0) = %d,%v before, want 2", v, d, ok)
		}
	}

	// 1-3: vertex 3 gains the landmark 1 as a parent and becomes covered.
	ds := insert(t, c, g, 1, 3, 1)
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
	ds = insert(t, c, g, 2, 5, 1)
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
	g := newAdj[uint32](8, false)
	for i := uint32(0); i+1 < 8; i++ {
		g.add(i, i+1, 1)
	}
	c := g.build(t, []uint32{0, 7})
	g.add(0, 4, 1)
	children, parents := g.pass(0)
	run := func(ws *Scratch) Delta {
		d := Delta{Rank: 0}
		RepairInsertion(c, ws, &d, 4, 1, children, parents, nil)
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
	g := newAdj[uint32](10, false)
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
