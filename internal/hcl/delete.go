// The local repairs of the unit-weight variants: after an arc is inserted
// (IncHL+) or deleted (DecHL), they repair landmark r's entries and highway
// cells in one direction by visiting only the vertices whose distance or
// covered flag can change. Both run on the same per-vertex slots: a
// vertex's old distance, read by Equation 1 off the frozen labelling on
// first touch, its new distance when it changes, and its recomputed
// covered flag. With unit weights the distances of two neighbours differ
// by at most one, which is what keeps both searches local.
//
// Insertion (Algorithms 2 and 3 of the paper). The new arc's head b moves
// to depth π = d(r, tail) + 1 when that is at most its old distance.
//
//   - Find: a FIFO BFS from b at depth π over children collects Λ_r, the
//     vertices whose old distance is at least their depth in the search —
//     their distance shrinks or they gain a shortest-path parent through
//     the new arc (Lemma 4.3). Nothing else changes.
//   - Classify: Λ_r is walked in level order. A landmark gets its highway
//     cell; any other vertex is covered iff some parent one level up is a
//     landmark other than r or covered itself (Lemma 4.6), reading an
//     affected parent's recomputed flag and any other parent's old one.
//     Uncovered vertices get an entry at their new distance, even an
//     unchanged one, and covered ones lose theirs.
//
// Deletion, in the manner of Ramalingam and Reps' decremental shortest
// paths:
//
//   - The affected set A — the vertices whose distance from r grows — is
//     closed downward: a vertex is in A iff every DAG parent it has left
//     is in A. Walking the old levels from the deleted arc's head b, only
//     children of A vertices are candidates.
//   - New distances for A come from its boundary: each A vertex is seeded
//     with its best parent outside A, whose distance did not change, and
//     the seeds relax inside A in distance order (a two-queue BFS merging
//     the sorted seeds with a FIFO). A vertex no seed reaches is now
//     disconnected from r.
//   - A vertex outside A gains no DAG parent: a new parent p would have to
//     sit one level above it after the deletion while p's old distance was
//     at least two below, impossible for neighbours. So its covered flag
//     can change only through a parent it lost — it is a candidate the walk
//     rejected, or b itself — or a parent whose flag flipped. Flags are
//     recomputed in increasing new distance from A and those candidates,
//     following only children of vertices whose flag flipped; old flags
//     are read off the minimal labelling (an r-entry iff uncovered).
//
// Either way the labelling ends as a full rebuild would leave it, so it
// stays byte-identical to a fresh build.

package hcl

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/cow"
	"repro/internal/graph"
	"repro/internal/queue"
)

// slot is one vertex's state in a local repair, valid only while its stamp
// equals the scratch's epoch.
type slot struct {
	stamp uint32
	old   graph.Dist // distance before the update
	cur   graph.Dist // new distance, for affected vertices (tentative while relaxing)
	flags uint8
}

// Slot flags.
const (
	inA      uint8 = 1 << iota // the vertex is affected: in A or Λ_r
	queued                     // reached by the affected-set walk
	settled                    // new distance final
	flagged                    // covered flag recomputed
	coverNow                   // the recomputed flag
)

// dist is the vertex's distance after the update.
func (s *slot) dist() graph.Dist {
	if s.flags&inA != 0 {
		return s.cur
	}
	return s.old
}

// local is one local repair task: landmark d.Rank in direction d.Dir.
type local struct {
	c                 *Core
	ws                *Scratch
	slots             []slot // ws.slots, sized for the task
	epoch             uint32 // ws.epoch, the task's
	d                 *Delta
	root              uint32
	children, parents func(uint32) []uint32
}

// begin starts a repair task on ws: it sizes the slots and moves to a fresh
// epoch, so every slot reads as untouched.
func (c *Core) begin(ws *Scratch, d *Delta, children, parents func(uint32) []uint32) *local {
	ws.next(len(c.rankArr))
	return &local{c: c, ws: ws, slots: ws.slots, epoch: ws.epoch, d: d, root: c.Landmarks[d.Rank], children: children, parents: parents}
}

// next sizes the slots for n vertices and starts a fresh epoch, clearing
// the stamps on wraparound.
func (s *Scratch) next(n int) {
	s.slots = cow.Grow(s.slots, n)
	if s.epoch == math.MaxUint32 {
		clear(s.slots)
		s.epoch = 0
	}
	s.epoch++
}

// at returns v's slot, stamping it on first touch. The check inlines; the
// stamping does not.
func (x *local) at(v uint32) *slot {
	s := &x.slots[v]
	if s.stamp != x.epoch {
		x.stamp(s, v)
	}
	return s
}

// stamp claims s for the current epoch, looking up v's old distance by
// Equation 1 on the frozen labelling.
//
//go:noinline
func (x *local) stamp(s *slot, v uint32) {
	*s = slot{stamp: x.epoch, old: x.c.PassDist(x.d.Dir, x.d.Rank, v)}
}

// wasCovered reads v's covered flag before the update off the minimal
// labelling: the root is uncovered, other landmarks are covered, and any
// other vertex is covered iff it holds no entry of the root.
func (x *local) wasCovered(v uint32) bool {
	if v == x.root {
		return false
	}
	if x.c.rankArr[v] != noRank {
		return true
	}
	_, has := x.c.Entry(x.d.Dir, v, x.d.Rank)
	return !has
}

// RepairInsertion buffers into d the repair of landmark d.Rank's entries
// and highway cells in direction d.Dir after the insertion of an arc whose
// head b now sits at distance pi, one more than its tail's: the caller has
// checked that pi is at most b's old distance (otherwise nothing changes).
// The graph must already hold the arc, and the labelling must be the
// frozen pre-insertion one. children and parents are the pass's adjacency,
// as for RepairDeletion. It appends Λ_r to out in level order and returns
// it. See the file comment for the method.
func (c *Core) RepairInsertion(ws *Scratch, d *Delta, b uint32, pi graph.Dist, children, parents func(uint32) []uint32, out []uint32) []uint32 {
	x := c.begin(ws, d, children, parents)
	base := len(out)
	x.slots[b] = slot{stamp: x.epoch, cur: pi, flags: inA} // its old distance is never read
	out = append(out, b)
	for i := base; i < len(out); i++ {
		next := x.at(out[i]).cur + 1
		for _, w := range children(out[i]) {
			if sw := x.at(w); sw.flags&inA == 0 && sw.old >= next {
				sw.flags, sw.cur = inA, next
				out = append(out, w)
			}
		}
	}
	for _, v := range out[base:] {
		sv := x.at(v)
		if x.covered(v, sv.cur) {
			sv.flags |= coverNow
		}
		sv.flags |= flagged
		if s := c.rankArr[v]; s != noRank {
			d.Cell(s, sv.cur)
		} else if sv.flags&coverNow == 0 {
			d.Set(v, sv.cur)
		} else if _, had := c.Entry(d.Dir, v, d.Rank); had {
			d.Remove(v)
		}
	}
	return out
}

// CountDistinct counts the distinct vertices visit reports, on a fresh
// epoch of pooled scratch.
func (c *Core) CountDistinct(visit func(see func(uint32))) int {
	ws := Scratches.Get()
	defer Scratches.Put(ws)
	ws.next(len(c.rankArr))
	count := 0
	visit(func(v uint32) {
		if s := &ws.slots[v]; s.stamp != ws.epoch {
			s.stamp = ws.epoch
			count++
		}
	})
	return count
}

// RepairDeletion buffers into d the repair of landmark d.Rank's entries and
// highway cells in direction d.Dir after the deletion of an arc of its
// shortest-path DAG; b is the arc's head, the endpoint whose old distance
// was one more than the other's. The graph must already lack the arc, and
// the labelling must be the frozen pre-deletion one. children and parents
// are the pass's adjacency: the neighbours twice on undirected graphs,
// Out and In on a forward pass, In and Out on a backward one. See the file
// comment for the method.
func (c *Core) RepairDeletion(ws *Scratch, d *Delta, b uint32, children, parents func(uint32) []uint32) {
	x := c.begin(ws, d, children, parents)
	x.findAffected(b)
	x.relax()
	x.reflag()
	x.emit()
}

// findAffected walks the old levels from b and splits what it reaches into
// A (ws.affected, in level order) and the rejected candidates, which keep
// their distance but lost a parent (ws.kept).
func (x *local) findAffected(b uint32) {
	ws := x.ws
	ws.affected, ws.kept = ws.affected[:0], ws.kept[:0]
	q := &ws.q
	q.Reset()
	x.at(b).flags |= queued
	q.Push(b)
	for !q.Empty() {
		v := q.Pop()
		sv := x.at(v)
		if x.keepsParent(v, sv.old) {
			ws.kept = append(ws.kept, v)
			continue
		}
		sv.flags |= inA
		ws.affected = append(ws.affected, v)
		for _, w := range x.children(v) {
			if sw := x.at(w); sw.flags&queued == 0 && sw.old == sv.old+1 {
				sw.flags |= queued
				q.Push(w)
			}
		}
	}
}

// keepsParent reports whether v, at old distance dv ≥ 1, still has a DAG
// parent outside A. The walk is level-ordered, so every parent in A has
// been decided already.
func (x *local) keepsParent(v uint32, dv graph.Dist) bool {
	for _, p := range x.parents(v) {
		if sp := x.at(p); sp.old == dv-1 && sp.flags&inA == 0 {
			return true
		}
	}
	return false
}

// relax computes the new distances of A: each vertex starts from its best
// parent outside A, and the seeds relax inside A in distance order.
func (x *local) relax() {
	ws := x.ws
	ws.seeds = ws.seeds[:0]
	for _, v := range ws.affected {
		best := graph.Inf
		for _, p := range x.parents(v) {
			if sp := x.at(p); sp.flags&inA == 0 && sp.old != graph.Inf {
				best = min(best, sp.old+1)
			}
		}
		x.at(v).cur = best
		if best != graph.Inf {
			ws.seeds = append(ws.seeds, queue.Pair{V: v, D: best})
		}
	}
	for o := x.order(); ; {
		p, ok := o.pop()
		if !ok {
			break
		}
		sv := x.at(p.V)
		if sv.flags&settled != 0 || p.D > sv.cur {
			continue // settled, or a stale queue entry
		}
		sv.flags |= settled
		for _, w := range x.children(p.V) {
			if sw := x.at(w); sw.flags&(inA|settled) == inA && p.D+1 < sw.cur {
				sw.cur = p.D + 1
				ws.fifo.Push(queue.Pair{V: w, D: p.D + 1})
			}
		}
	}
}

// reflag recomputes covered flags in increasing new distance, starting from
// A and the rejected candidates and following the children of every vertex
// whose flag flipped. ws.done lists every vertex it recomputed.
func (x *local) reflag() {
	ws := x.ws
	ws.seeds, ws.done = ws.seeds[:0], ws.done[:0]
	for _, v := range ws.affected {
		if dv := x.at(v).cur; dv != graph.Inf {
			ws.seeds = append(ws.seeds, queue.Pair{V: v, D: dv})
		}
	}
	for _, v := range ws.kept {
		ws.seeds = append(ws.seeds, queue.Pair{V: v, D: x.at(v).old})
	}
	for o := x.order(); ; {
		p, ok := o.pop()
		if !ok {
			break
		}
		sv := x.at(p.V)
		if sv.flags&flagged != 0 {
			continue
		}
		sv.flags |= flagged
		ws.done = append(ws.done, p.V)
		cov := x.covered(p.V, p.D)
		if cov {
			sv.flags |= coverNow
		}
		if cov == x.wasCovered(p.V) {
			continue
		}
		for _, w := range x.children(p.V) {
			if sw := x.at(w); sw.flags&flagged == 0 && sw.dist() == p.D+1 {
				ws.fifo.Push(queue.Pair{V: w, D: p.D + 1})
			}
		}
	}
}

// covered computes v's covered flag at new distance dv ≥ 1: v is another
// landmark, or some DAG parent is covered. Parents sit one level lower, so
// every parent whose flag is recomputed at all has been already.
func (x *local) covered(v uint32, dv graph.Dist) bool {
	if x.c.rankArr[v] != noRank {
		return v != x.root
	}
	for _, p := range x.parents(v) {
		sp := x.at(p)
		if sp.dist() != dv-1 {
			continue
		}
		if sp.flags&flagged != 0 {
			if sp.flags&coverNow != 0 {
				return true
			}
		} else if x.wasCovered(p) {
			return true
		}
	}
	return false
}

// emit buffers the edits: a highway cell for every landmark in A, and for
// every other vertex whose distance or flag was recomputed the entry its
// new state calls for, where it differs from the frozen one.
func (x *local) emit() {
	c, d := x.c, x.d
	for _, v := range x.ws.affected {
		if s := c.rankArr[v]; s != noRank {
			d.Cell(s, x.at(v).cur)
			continue
		}
		x.entry(v)
	}
	for _, v := range x.ws.done {
		if x.at(v).flags&inA == 0 && c.rankArr[v] == noRank {
			x.entry(v)
		}
	}
}

// entry buffers the edit, if any, that gives non-landmark v its new entry.
func (x *local) entry(v uint32) {
	sv := x.at(v)
	nd := sv.dist()
	old, had := x.c.Entry(x.d.Dir, v, x.d.Rank)
	switch {
	case nd != graph.Inf && sv.flags&coverNow == 0:
		if !had || old != nd {
			x.d.Set(v, nd)
		}
	case had:
		x.d.Remove(v)
	}
}

// order returns the distance-ordered pop over ws.seeds, sorted here, and
// the emptied FIFO.
func (x *local) order() ordered {
	ws := x.ws
	slices.SortFunc(ws.seeds, func(p, q queue.Pair) int { return cmp.Compare(p.D, q.D) })
	ws.fifo.Reset()
	return ordered{seeds: ws.seeds, fifo: &ws.fifo}
}

// ordered pops (vertex, distance) pairs in non-decreasing distance from a
// sorted seed list and a FIFO whose pushes never decrease: each push is one
// more than the distance just popped. It is the two-queue form of a
// unit-weight Dijkstra.
type ordered struct {
	seeds []queue.Pair
	next  int
	fifo  *queue.PairQueue
}

func (o *ordered) pop() (queue.Pair, bool) {
	if o.next < len(o.seeds) && (o.fifo.Empty() || o.seeds[o.next].D <= o.fifo.Peek().D) {
		o.next++
		return o.seeds[o.next-1], true
	}
	if o.fifo.Empty() {
		return queue.Pair{}, false
	}
	return o.fifo.Pop(), true
}
