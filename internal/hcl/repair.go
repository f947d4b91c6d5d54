// The parallel repair engine of all three variants. Every expensive phase
// of an update is landmark-independent: a task for landmark r in label
// direction dir — the local repair of an insertion or a deletion
// (delete.go), the weighted variant's jumped Dijkstra and classification,
// or the covered-flag rebuild search of a construction or a weighted
// deletion — reads only the frozen pre-repair labelling, and its
// edits touch only rank-r entries of its direction and highway cells (r,s)
// (forward) or (s,r) (backward). Updates therefore fan tasks across
// workers, each computing a Delta against the unmodified labelling with its
// own pooled scratch, and after a full barrier the merge applies the
// deltas in task order, the serial apply order: the highway cells one
// delta at a time, the label edits one touched chunk at a time. The serial path
// (Workers == 1) runs the identical task+merge code, so the labelling is
// byte-identical for every worker count.
//
// Two invariants make worker-side decisions exact rather than speculative:
//
//   - Label writes are rank-scoped. Only landmark r's task touches rank-r
//     entries of its direction, so the presence and value checks a task
//     makes against the pre-repair labelling hold unchanged at merge time.
//   - Highway cells cross landmarks (symmetric kinds mirror (r,s) into
//     (s,r); on the directed variant the backward pass of s writes the
//     forward cell of r), but any two tasks that write the same cell in one
//     update write the same new distance. Insertion repairs never read the
//     highway, so their cells apply unconditionally. Deletion repairs and
//     rebuild searches compare against the frozen highway, so their tasks
//     emit candidate cells wherever the pre-update value differs — a
//     superset of what serial writes — and the merge re-checks each against
//     the live matrix, reproducing serial's writes and counts exactly.

package hcl

import (
	"sync"
	"time"

	"repro/internal/cow"
	"repro/internal/fanout"
	"repro/internal/graph"
	"repro/internal/queue"
)

// labelOp is one label edit of a delta: set the entry of vertex v to d, or
// remove it when d is Inf (no label stores an Inf distance). The rank and
// direction are the delta's.
type labelOp struct {
	v uint32
	d graph.Dist
}

// hwOp is one highway cell of a delta: (r,s) on a forward or single
// direction task, (s,r) on a backward one, with the task's rank r implicit.
type hwOp struct {
	s uint16
	d graph.Dist
}

// Delta is the buffered outcome of one repair task, the edits of landmark
// Rank in label direction Dir, applied by the merge in task order.
type Delta struct {
	Rank uint16
	Dir  int
	ops  []labelOp
	hw   []hwOp
}

// Set buffers setting the entry of v to d.
func (d *Delta) Set(v uint32, dist graph.Dist) { d.ops = append(d.ops, labelOp{v, dist}) }

// Remove buffers removing the entry of v.
func (d *Delta) Remove(v uint32) { d.ops = append(d.ops, labelOp{v, graph.Inf}) }

// Cell buffers the highway cell between the task's landmark and rank s.
func (d *Delta) Cell(s uint16, dist graph.Dist) { d.hw = append(d.hw, hwOp{s, dist}) }

// Changes counts the edits of a delta: label entries set and removed, and
// highway cells written.
type Changes struct{ Added, Removed, Highway int }

// Total is the number of edits.
func (ch Changes) Total() int { return ch.Added + ch.Removed + ch.Highway }

// Changes counts d's edits; once merged, a delta holds exactly what it
// changed.
func (d *Delta) Changes() Changes {
	ch := Changes{Highway: len(d.hw)}
	for _, op := range d.ops {
		if op.d == graph.Inf {
			ch.Removed++
		} else {
			ch.Added++
		}
	}
	return ch
}

// Stats reports what one update did, feeding the paper's Figure 1
// (affected percentages), the Table 1 and Figures 3–4 instrumentation and
// the update summaries; every variant reports it. A skipped task is one
// the affected test eliminated (Lemma 4.3): a landmark, or a (landmark,
// direction) pass on the directed variant.
type Stats struct {
	LandmarksTotal   int // |R|
	LandmarksSkipped int // skipped tasks
	AffectedSum      int // Σ_r |Λ_r|; a deletion counts one vertex per edit
	AffectedUnion    int // |∪_r Λ_r|, the paper's affected vertices; undirected variant only
	EntriesAdded     int // label entries added or modified
	EntriesRemoved   int // label entries removed (outdated/redundant)
	HighwayUpdates   int // highway cells refreshed
}

// Add counts one merged delta's edits.
func (st *Stats) Add(ch Changes) {
	st.EntriesAdded += ch.Added
	st.EntriesRemoved += ch.Removed
	st.HighwayUpdates += ch.Highway
}

// AddEdits counts merged deltas of repairs that report no affected set —
// a deletion or a rebuild — charging each edit as one affected vertex.
func (st *Stats) AddEdits(ds []Delta) {
	for i := range ds {
		ch := ds[i].Changes()
		st.Add(ch)
		st.AffectedSum += ch.Total()
	}
}

// Plus aggregates the counters of a component update, all but
// LandmarksTotal.
func (st *Stats) Plus(o Stats) {
	st.LandmarksSkipped += o.LandmarksSkipped
	st.AffectedSum += o.AffectedSum
	st.AffectedUnion += o.AffectedUnion
	st.EntriesAdded += o.EntriesAdded
	st.EntriesRemoved += o.EntriesRemoved
	st.HighwayUpdates += o.HighwayUpdates
}

// Affected is the affected-vertex count an update summary reports: the
// union where the variant counts one, else the sum. A counted union is
// zero only when the sum is, so a zero union selects the sum.
func (st Stats) Affected() int {
	if st.AffectedUnion != 0 {
		return st.AffectedUnion
	}
	return st.AffectedSum
}

// Touched calls fn for every vertex a merged delta changed: the landmark of
// each highway cell, then the vertex of each label edit.
func (c *Core) Touched(d *Delta, fn func(v uint32)) {
	for _, h := range d.hw {
		fn(c.Landmarks[h.s])
	}
	for _, op := range d.ops {
		fn(op.v)
	}
}

// Scratch is one worker's state for the covered-flag searches: a distance
// and a covered flag per vertex for the rebuild searches, the epoch-stamped
// per-vertex slots and work lists of the local insertion and deletion
// repairs (a slot is current only while its stamp equals epoch, so a task
// starts by bumping the epoch instead of clearing), and the queues. The
// weighted variant embeds it in its own worker scratch.
type Scratch struct {
	dist    []graph.Dist
	covered []bool
	levels  [2][]uint32 // frontiers of the rebuild searches
	q       queue.Uint32

	epoch                uint32 // slots stamped otherwise are stale
	slots                []slot
	affected, kept, done []uint32
	seeds                []queue.Pair
	fifo                 queue.PairQueue
}

// Arrays returns the distance and covered vectors sized for n vertices.
// Their contents are left over from earlier searches.
func (s *Scratch) Arrays(n int) ([]graph.Dist, []bool) {
	s.dist, s.covered = cow.Grow(s.dist, n), cow.Grow(s.covered, n)
	return s.dist, s.covered
}

// Pool is a package-wide free list of per-worker scratch. Every update
// draws its workers' scratch from a pool and returns it afterwards: no
// index or updater holds scratch between updates, so the first repair on a
// freshly forked index — every epoch a Store publishes — reuses the
// scratch earlier epochs warmed.
type Pool[S any] struct{ p sync.Pool }

// Get returns pooled scratch, or a zero one.
func (p *Pool[S]) Get() *S {
	if s, ok := p.p.Get().(*S); ok {
		return s
	}
	return new(S)
}

// Put returns s to the pool.
func (p *Pool[S]) Put(s *S) { p.p.Put(s) }

// Scratches is the pool of the unit-weight variants' scratch.
var Scratches Pool[Scratch]

// Repair runs task for every delta of ds across the core's Workers — each
// task reads the frozen labelling and fills only its own delta ds[t] — and
// then merges the deltas in order. Each worker draws its scratch from pool,
// and tasks are timed through RepairTimer when it is set. recheck selects
// the rebuild merge, which re-checks every highway cell against the live
// matrix; insertion deltas apply as they are. Afterwards every delta holds
// exactly the edits it made (see Changes and Touched).
func Repair[S any](c *Core, pool *Pool[S], ds []Delta, recheck bool, task func(ws *S, t int, d *Delta)) {
	if len(ds) == 0 {
		return
	}
	workers := min(fanout.Resolve(c.Workers), len(ds))
	scs := make([]*S, workers)
	for i := range scs {
		scs[i] = pool.Get()
	}
	timer := c.RepairTimer
	fanout.Run(workers, len(ds), func(w, t int) {
		if timer == nil {
			task(scs[w], t, &ds[t])
			return
		}
		start := time.Now()
		task(scs[w], t, &ds[t])
		timer(time.Since(start))
	})
	for _, s := range scs {
		pool.Put(s)
	}
	c.merge(ds, recheck)
}

// merge applies the deltas in order. The highway cells go one delta at a
// time; with recheck, a cell the live matrix already holds is dropped — an
// earlier-merged task wrote the same new distance, and serial would not
// have written or counted it either. The label edits of each direction go
// in one pass over the chunks they touch (see Packed.apply).
func (c *Core) merge(ds []Delta, recheck bool) {
	for k := range ds {
		d := &ds[k]
		kept := d.hw[:0]
		for _, h := range d.hw {
			i, j := d.Rank, h.s
			if d.Dir == 1 {
				i, j = j, i
			}
			if recheck && c.Highway(i, j) == h.d {
				continue
			}
			c.setHighway(i, j, h.d)
			kept = append(kept, h)
		}
		d.hw = kept
	}
	for dir := range c.dirs[:c.kind.Dirs] {
		c.dirs[dir].apply(ds, dir, c.Workers)
	}
}

// Construct fills an empty labelling: one search per landmark and label
// direction, fanned across workers (0 = GOMAXPROCS, 1 = serial) and merged
// in rank order, so every worker count builds the same labelling. The
// merge lays every chunk out once, from all the deltas. search
// runs the covered-flag search of d.Rank in direction d.Dir and buffers its
// entries and highway cells into d.
func Construct[S any](c *Core, pool *Pool[S], workers int, search func(ws *S, d *Delta)) {
	ds := make([]Delta, 0, c.kind.Dirs*len(c.Landmarks))
	for r := range c.Landmarks {
		for dir := 0; dir < c.kind.Dirs; dir++ {
			ds = append(ds, Delta{Rank: uint16(r), Dir: dir})
		}
	}
	tuned := c.Workers
	c.Workers = workers
	Repair(c, pool, ds, true, func(ws *S, _ int, d *Delta) { search(ws, d) })
	c.Workers = tuned
}

// RebuildBFS runs the covered-flag BFS of landmark d.Rank over children —
// the neighbours, or the out- or in-arcs of a directed pass — whose reverse
// arcs are parents (the same neighbours on an undirected graph), and
// buffers the replacement of its direction's entries and highway cells
// into d (see Diff). covered(v) holds iff some shortest root–v path
// contains another landmark; it propagates along shortest-path DAG edges.
// On an empty labelling this is the construction pass; the RepairRebuild
// insertion ablation runs it over a populated one.
//
// The search is direction-optimizing (Beamer, Asanović & Patterson,
// "Direction-Optimizing Breadth-First Search", SC 2012). A top-down level
// scans the frontier's children, as a queue-based BFS would. A bottom-up
// level has every unvisited vertex scan its parents for one at the current
// level and stop at the first covered one, which on a small-world graph
// skips most of the arcs of the two or three widest levels. Both directions
// find every vertex of the next level and OR the covered flags of all its
// parents at the current level, so dist and covered — and the labelling —
// do not depend on the switch. The switch (see dirSwitch.bottomUp) looks
// only at frontier sizes, so a high-diameter graph never pays for it.
func (c *Core) RebuildBFS(ws *Scratch, d *Delta, children, parents func(uint32) []uint32) {
	n := len(c.rankArr)
	dist, covered := ws.Arrays(n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	root := c.Landmarks[d.Rank]
	dist[root], covered[root] = 0, false
	front, next := append(ws.levels[0][:0], root), ws.levels[1][:0]
	sw := dirSwitch{n: n, unvisited: n - 1}
	for level := graph.Dist(0); len(front) > 0; level++ {
		if sw.bottomUp(level, len(front)) {
			next = c.pullLevel(level, dist, covered, parents, next[:0])
		} else {
			next = c.pushLevel(level, dist, covered, front, children, next[:0])
		}
		sw.prev, sw.unvisited = len(front), sw.unvisited-len(next)
		front, next = next, front
	}
	ws.levels = [2][]uint32{front, next}
	c.Diff(d, dist, covered)
}

// pushLevel expands the frontier at level top-down: each frontier vertex
// discovers its unvisited children and passes its covered flag to every
// child at the next level. It appends the next level to next.
func (c *Core) pushLevel(level graph.Dist, dist []graph.Dist, covered []bool, front []uint32, children func(uint32) []uint32, next []uint32) []uint32 {
	for _, v := range front {
		cv := covered[v]
		for _, w := range children(v) {
			switch {
			case dist[w] == graph.Inf:
				dist[w] = level + 1
				covered[w] = cv || c.rankArr[w] != noRank // the root is visited
				next = append(next, w)
			case dist[w] == level+1 && cv:
				covered[w] = true
			}
		}
	}
	return next
}

// pullLevel finds the next level bottom-up: each unvisited vertex scans its
// parents for one at level, and is covered if it is a landmark or one of
// them is, so the scan stops at the first covered parent. It appends the
// next level to next.
func (c *Core) pullLevel(level graph.Dist, dist []graph.Dist, covered []bool, parents func(uint32) []uint32, next []uint32) []uint32 {
	for w, dw := range dist {
		if dw != graph.Inf {
			continue
		}
		found, cw := false, c.rankArr[w] != noRank
		for _, p := range parents(uint32(w)) {
			if dist[p] == level {
				found, cw = true, cw || covered[p]
				if cw {
					break
				}
			}
		}
		if found {
			dist[w], covered[w] = level+1, cw
			next = append(next, uint32(w))
		}
	}
	return next
}

// The switch constants of Beamer et al.: a frontier goes bottom-up once its
// arcs exceed 1/switchAlpha of the unvisited vertices' arcs, and returns
// top-down once it shrinks below n/switchBeta vertices. Below n/switchBeta
// vertices a growing frontier is not tested at all.
const (
	switchAlpha = 14
	switchBeta  = 24
)

// forceDirection, when set, replaces the switch rule: level d is expanded
// bottom-up iff it returns true. Tests set it to pin every direction
// sequence to the same labelling.
var forceDirection func(level graph.Dist) bool

// dirSwitch is the direction state of one search over n vertices:
// whether the last level ran bottom-up, the size of the level before the
// frontier, and how many vertices no level has reached yet.
type dirSwitch struct {
	n, prev, unvisited int
	up                 bool
}

// bottomUp reports whether the frontier of f vertices is expanded
// bottom-up.
//
// A bottom-up level pays for every unvisited vertex it does not reach, and
// for every arc of a reached vertex that no covered parent cuts short, so
// it only wins when the frontier is about to swallow the rest of the graph.
// A top-down search therefore tests only a frontier that is large (at
// least n/switchBeta vertices) and growing fast enough that one more level
// at the same growth rate would outnumber the unvisited vertices. The test
// is Beamer's, frontier arcs against unvisited arcs, with both counted at
// the frontier's mean degree, so it reads no adjacency: f·switchAlpha >
// unvisited. On a ring lattice or a lightly rewired small world the
// frontier never grows like that. A bottom-up search stays bottom-up until
// the frontier is small and shrinking.
func (s *dirSwitch) bottomUp(level graph.Dist, f int) bool {
	if forceDirection != nil {
		return forceDirection(level)
	}
	large := f >= s.n/switchBeta
	if s.up {
		s.up = large || f >= s.prev
	} else {
		s.up = large && f > s.prev && uint64(f)*uint64(f) >= uint64(s.unvisited)*uint64(s.prev) &&
			f*switchAlpha > s.unvisited
	}
	return s.up
}

// Diff buffers into d the edits that make landmark d.Rank's entries and
// highway cells in direction d.Dir agree with a completed covered-flag
// search: an entry for every reachable uncovered non-landmark (the minimal
// labelling of Theorem 5.2: an entry exists iff no shortest path contains
// another landmark), no entry elsewhere, and the searched distance in every
// highway cell — Inf for landmarks the graph no longer connects. covered is
// read only where dist is finite. Label edits are checked against the
// frozen labelling and exact; highway cells are candidates for the merge to
// re-check.
func (c *Core) Diff(d *Delta, dist []graph.Dist, covered []bool) {
	r := d.Rank
	root := c.Landmarks[r]
	L := &c.dirs[d.Dir]
	for v := range L.NumVertices() {
		if uint32(v) == root {
			continue
		}
		if s := c.rankArr[v]; s != noRank {
			i, j := r, s
			if d.Dir == 1 {
				i, j = s, r
			}
			if c.Highway(i, j) != dist[v] {
				d.Cell(s, dist[v])
			}
			continue
		}
		old, had := FindEntry(L.Label(uint32(v)), r)
		if dist[v] != graph.Inf && !covered[v] {
			if !had || old != dist[v] {
				d.Set(uint32(v), dist[v])
			}
		} else if had {
			d.Remove(uint32(v))
		}
	}
}
