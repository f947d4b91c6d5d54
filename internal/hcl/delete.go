// The local repairs of all three variants: after an arc is inserted
// (IncHL+) or deleted (DecHL), they repair landmark r's entries and highway
// cells in one direction by visiting only the vertices whose distance or
// covered flag can change. Both run on the same per-vertex slots: a
// vertex's old distance, read by Equation 1 off the frozen labelling on
// first touch, its new distance when it changes, and its recomputed
// covered flag. Arcs are unit (a bare target) or carry a positive integer
// weight w; a vertex at distance d reaches a neighbour at d + w, so a
// shortest-path parent always sits strictly closer to r, which is what
// keeps both searches local and every walk in distance order well-founded.
// On unit arcs every walk below pushes in non-decreasing distance, so a
// FIFO orders it; weighted walks use the monotone radix heap.
//
// Insertion (Algorithms 2 and 3 of the paper, with Dijkstra in place of
// BFS on weighted graphs). The new arc's head b moves to π = d(r, tail) + w
// when that is at most its old distance.
//
//   - Find: a jumped search from b at π over children collects Λ_r, the
//     vertices whose old distance is at least their distance in the search —
//     their distance shrinks or they gain a shortest-path parent through
//     the new arc (Lemma 4.3). Nothing else changes.
//   - Classify: Λ_r is walked in distance order. A landmark gets its highway
//     cell; any other vertex is covered iff some shortest-path parent is a
//     landmark other than r or covered itself (Lemma 4.6), reading an
//     affected parent's recomputed flag and any other parent's old one.
//     Uncovered vertices get an entry at their new distance, even an
//     unchanged one, and covered ones lose theirs.
//
// Deletion, in the manner of Ramalingam and Reps' decremental shortest
// paths (stated for positive weights):
//
//   - The affected set A — the vertices whose distance from r grows — is
//     closed downward: a vertex is in A iff every DAG parent it has left
//     is in A. Walking the old distances up from the deleted arc's head b,
//     only DAG children of A vertices are candidates.
//   - New distances for A come from its boundary: each A vertex is seeded
//     with its best parent outside A, whose distance did not change, and
//     the seeds relax inside A in distance order (merged with the FIFO on
//     unit arcs, pushed into the heap on weighted ones). A vertex no seed
//     reaches is now disconnected from r.
//   - A vertex v outside A gains no DAG parent: a new parent p would need
//     d'(p) + w = d(v) ≤ d(p) + w ≤ d'(p) + w, so p kept its distance and
//     was a parent already. So v's covered flag can change only through a
//     parent it lost — it is a candidate the walk rejected, or b itself —
//     or a parent whose flag flipped. Flags are recomputed in increasing
//     new distance from A and those candidates, following only children of
//     vertices whose flag flipped; old flags are read off the minimal
//     labelling (an r-entry iff uncovered).
//
// Either way the labelling ends as a full rebuild would leave it, so it
// stays byte-identical to a fresh build.

package hcl

import (
	"cmp"
	"math"
	"slices"
	"unsafe"

	"repro/internal/cow"
	"repro/internal/graph"
	"repro/internal/queue"
	"repro/internal/wgraph"
)

// Arc is an adjacency entry the local repairs walk: a bare target on the
// unit-weight graphs, a target and a weight on the weighted one. Both keep
// the target at offset 0.
type Arc interface{ uint32 | wgraph.Arc }

// to returns a's target.
func to[A Arc](a A) uint32 { return *(*uint32)(unsafe.Pointer(&a)) }

// unit reports whether A is a bare target. The size is a constant in each
// instantiation, so every branch on it folds away.
func unit[A Arc]() bool {
	var a A
	return unsafe.Sizeof(a) == 4
}

// plus is the distance over a from a vertex at distance d: d+1 on a unit
// arc, where Inf wraps to 0 and so matches no distance the repairs compare
// it with (all are at least 1), and d+w saturating at Inf on a weighted one.
// It spells out unit[A](): a generic call nested in an inlined one costs a
// dictionary load per arc.
func plus[A Arc](d graph.Dist, a A) graph.Dist {
	if unsafe.Sizeof(a) == 4 {
		return d + 1
	}
	return graph.AddDist(d, (*wgraph.Arc)(unsafe.Pointer(&a)).W)
}

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

// local is one local repair task: landmark d.Rank in direction d.Dir. Its
// methods do not depend on the arcs, so they inline into the walks.
type local struct {
	c     *Core
	ws    *Scratch
	slots []slot // ws.slots, sized for the task
	epoch uint32 // ws.epoch, the task's
	d     *Delta
	root  uint32
}

// walk is a local repair task over the pass's adjacency.
type walk[A Arc] struct {
	local
	children, parents func(uint32) []A
	next, head        int // ws.seeds and ws.fifo popped, on unit arcs
}

// begin starts a repair task on ws: it sizes the slots and moves to a fresh
// epoch, so every slot reads as untouched.
func begin[A Arc](c *Core, ws *Scratch, d *Delta, children, parents func(uint32) []A) *walk[A] {
	ws.next(len(c.rankArr))
	return &walk[A]{local: local{c: c, ws: ws, slots: ws.slots, epoch: ws.epoch, d: d, root: c.Landmarks[d.Rank]}, children: children, parents: parents}
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
// head b now sits at distance pi, its tail's plus the arc's weight: the
// caller has checked that pi is at most b's old distance (otherwise nothing
// changes). The graph must already hold the arc, and the labelling must be
// the frozen pre-insertion one. children and parents are the pass's
// adjacency, as for RepairDeletion. It appends Λ_r to out in distance order
// and returns it. See the file comment for the method.
func RepairInsertion[A Arc](c *Core, ws *Scratch, d *Delta, b uint32, pi graph.Dist, children, parents func(uint32) []A, out []uint32) []uint32 {
	x := begin(c, ws, d, children, parents)
	base := len(out)
	x.slots[b] = slot{stamp: x.epoch, cur: pi, flags: inA | settled} // its old distance is never read
	out = append(out, b)
	// out lists the vertices whose distance is final, in distance order. On
	// unit arcs a vertex's first reach is final, so out is its own FIFO;
	// weighted reaches wait in the heap until they settle.
	if !unit[A]() {
		ws.pq.Reset()
	}
	for i := base; i < len(out); i++ {
		dv := x.at(out[i]).cur
		for _, a := range children(out[i]) {
			nd := plus(dv, a)
			if sw := x.at(to(a)); sw.old >= nd && (sw.flags&inA == 0 || !unit[A]() && nd < sw.cur) {
				sw.flags, sw.cur = inA, nd
				if unit[A]() {
					out = append(out, to(a))
				} else {
					ws.pq.PushItem(queue.Item{V: to(a), D: nd})
				}
			}
		}
		if !unit[A]() {
			out = x.settle(out)
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

// settle appends to out the heap's next vertex to settle, if any, skipping
// the stale entries a shorter reach left behind.
func (x *walk[A]) settle(out []uint32) []uint32 {
	for x.ws.pq.Len() > 0 {
		it := x.ws.pq.PopItem()
		if s := x.at(it.V); s.flags&settled == 0 {
			s.flags |= settled
			return append(out, it.V)
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
// was the other's plus the arc's weight. The graph must already lack the
// arc, and the labelling must be the frozen pre-deletion one. children and
// parents are the pass's adjacency: the neighbours twice on undirected
// graphs, Out and In on a forward pass, In and Out on a backward one. See
// the file comment for the method.
func RepairDeletion[A Arc](c *Core, ws *Scratch, d *Delta, b uint32, children, parents func(uint32) []A) {
	x := begin(c, ws, d, children, parents)
	x.findAffected(b)
	x.relax()
	x.reflag()
	x.emit()
}

// findAffected walks the old distances up from b and splits what it
// reaches into A (ws.affected, in distance order) and the rejected
// candidates, which keep their distance but lost a parent (ws.kept).
func (x *walk[A]) findAffected(b uint32) {
	ws := x.ws
	ws.affected, ws.kept = ws.affected[:0], ws.kept[:0]
	sb := x.at(b)
	sb.flags |= queued
	ws.seeds = append(ws.seeds[:0], queue.Pair{V: b, D: sb.old})
	x.order()
	for {
		p, ok := x.pop()
		if !ok {
			break
		}
		sv := x.at(p.V)
		if x.keepsParent(p.V, sv.old) {
			ws.kept = append(ws.kept, p.V)
			continue
		}
		sv.flags |= inA
		ws.affected = append(ws.affected, p.V)
		for _, a := range x.children(p.V) {
			if sw := x.at(to(a)); sw.flags&queued == 0 && sw.old == plus(sv.old, a) {
				sw.flags |= queued
				push(x, queue.Pair{V: to(a), D: sw.old})
			}
		}
	}
}

// keepsParent reports whether v, at old distance dv ≥ 1, still has a DAG
// parent outside A. The walk is in old-distance order, so every parent in
// A has been decided already.
func (x *walk[A]) keepsParent(v uint32, dv graph.Dist) bool {
	for _, a := range x.parents(v) {
		if sp := x.at(to(a)); plus(sp.old, a) == dv && sp.flags&inA == 0 {
			return true
		}
	}
	return false
}

// relax computes the new distances of A: each vertex starts from its best
// parent outside A, and the seeds relax inside A in distance order.
func (x *walk[A]) relax() {
	ws := x.ws
	ws.seeds = ws.seeds[:0]
	for _, v := range ws.affected {
		best := graph.Inf
		for _, a := range x.parents(v) {
			if sp := x.at(to(a)); sp.flags&inA == 0 && sp.old != graph.Inf {
				best = min(best, plus(sp.old, a))
			}
		}
		x.at(v).cur = best
		if best != graph.Inf {
			ws.seeds = append(ws.seeds, queue.Pair{V: v, D: best})
		}
	}
	x.order()
	for {
		p, ok := x.pop()
		if !ok {
			break
		}
		sv := x.at(p.V)
		if sv.flags&settled != 0 || p.D > sv.cur {
			continue // settled, or a stale queue entry
		}
		sv.flags |= settled
		for _, a := range x.children(p.V) {
			if sw := x.at(to(a)); sw.flags&(inA|settled) == inA && plus(p.D, a) < sw.cur {
				sw.cur = plus(p.D, a)
				push(x, queue.Pair{V: to(a), D: sw.cur})
			}
		}
	}
}

// reflag recomputes covered flags in increasing new distance, starting from
// A and the rejected candidates and following the children of every vertex
// whose flag flipped. ws.done lists every vertex it recomputed.
func (x *walk[A]) reflag() {
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
	x.order()
	for {
		p, ok := x.pop()
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
		for _, a := range x.children(p.V) {
			if sw := x.at(to(a)); sw.flags&flagged == 0 && sw.dist() == plus(p.D, a) {
				push(x, queue.Pair{V: to(a), D: sw.dist()})
			}
		}
	}
}

// covered computes v's covered flag at new distance dv ≥ 1: v is another
// landmark, or some DAG parent is covered. Parents sit strictly closer, so
// every parent whose flag is recomputed at all has been already.
func (x *walk[A]) covered(v uint32, dv graph.Dist) bool {
	if x.c.rankArr[v] != noRank {
		return v != x.root
	}
	for _, a := range x.parents(v) {
		p := to(a)
		sp := x.at(p)
		if plus(sp.dist(), a) != dv {
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

// order starts a distance-ordered walk from ws.seeds. On unit arcs it sorts
// the seeds and empties the FIFO, and pop merges the two. Weighted seeds go
// into the emptied radix heap: merging them would need a peek at the heap,
// which raises its floor to its minimum, and a seed popped below that floor
// could then push a key under it.
func (x *walk[A]) order() {
	ws := x.ws
	if !unit[A]() {
		ws.pq.Reset()
		for _, p := range ws.seeds {
			ws.pq.PushItem(queue.Item(p))
		}
		return
	}
	slices.SortFunc(ws.seeds, func(p, q queue.Pair) int { return cmp.Compare(p.D, q.D) })
	ws.fifo, x.next, x.head = ws.fifo[:0], 0, 0
}

// push queues a pair whose distance is at least the one last popped. On
// unit arcs it is exactly one more, so the FIFO's pushes never decrease.
// A walk starts on an empty FIFO, so it is a slice and a read index. push
// is a function because a method of a generic type does not inline into
// the walks.
func push[A Arc](x *walk[A], p queue.Pair) {
	var a A
	if unsafe.Sizeof(a) == 4 { // unit[A](), as in plus
		x.ws.fifo = append(x.ws.fifo, p)
	} else {
		x.ws.pq.PushItem(queue.Item(p))
	}
}

// pop returns a pair of least distance, or false when the walk is done. On
// unit arcs it is the two-queue form of Dijkstra: the least of the next
// sorted seed and the FIFO's head, ties to the seed.
func (x *walk[A]) pop() (queue.Pair, bool) {
	ws := x.ws
	if !unit[A]() {
		if ws.pq.Len() == 0 {
			return queue.Pair{}, false
		}
		return queue.Pair(ws.pq.PopItem()), true
	}
	fifo := x.head < len(ws.fifo)
	if x.next < len(ws.seeds) && (!fifo || ws.seeds[x.next].D <= ws.fifo[x.head].D) {
		x.next++
		return ws.seeds[x.next-1], true
	}
	if !fifo {
		return queue.Pair{}, false
	}
	x.head++
	return ws.fifo[x.head-1], true
}
