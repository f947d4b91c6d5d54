// The local deletion repair (DecHL) of the unit-weight variants: after an
// arc of landmark r's shortest-path DAG is deleted, it repairs r's entries
// and highway cells in one direction by visiting only the vertices whose
// distance or covered flag can change, in the manner of Ramalingam and
// Reps' decremental shortest paths. With unit weights the distances of two
// neighbours differ by at most one, which is what keeps the search local:
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
// The edits are exactly those Diff would derive from a full rebuild, so the
// labelling stays byte-identical to a fresh build.

package hcl

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/queue"
)

// slot is one vertex's state in a local deletion repair, valid only while
// its stamp equals the scratch's epoch.
type slot struct {
	stamp uint32
	old   graph.Dist // distance before the deletion
	cur   graph.Dist // new distance, for vertices in A (tentative while relaxing)
	flags uint8
}

// Slot flags.
const (
	inA      uint8 = 1 << iota // the vertex's distance grows
	queued                     // reached by the affected-set walk
	settled                    // new distance final
	flagged                    // covered flag recomputed
	coverNow                   // the recomputed flag
)

// dist is the vertex's distance after the deletion.
func (s *slot) dist() graph.Dist {
	if s.flags&inA != 0 {
		return s.cur
	}
	return s.old
}

// deletion is one local repair task: landmark d.Rank in direction d.Dir.
type deletion struct {
	c                 *Core
	ws                *Scratch
	d                 *Delta
	root              uint32
	children, parents func(uint32) []uint32
}

// at returns v's slot, stamping it — and looking up v's old distance by
// Equation 1 on the frozen labelling — on first touch.
func (x *deletion) at(v uint32) *slot {
	s := &x.ws.slots[v]
	if s.stamp != x.ws.epoch {
		*s = slot{stamp: x.ws.epoch, old: x.c.PassDist(x.d.Dir, x.d.Rank, v)}
	}
	return s
}

// wasCovered reads v's covered flag before the deletion off the minimal
// labelling: the root is uncovered, other landmarks are covered, and any
// other vertex is covered iff it holds no entry of the root.
func (x *deletion) wasCovered(v uint32) bool {
	if v == x.root {
		return false
	}
	if x.c.rankArr[v] != noRank {
		return true
	}
	_, has := x.c.Entry(x.d.Dir, v, x.d.Rank)
	return !has
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
	ws.slots = Grow(ws.slots, len(c.rankArr))
	if ws.epoch == math.MaxUint32 {
		clear(ws.slots)
		ws.epoch = 0
	}
	ws.epoch++
	x := &deletion{c: c, ws: ws, d: d, root: c.Landmarks[d.Rank], children: children, parents: parents}
	x.findAffected(b)
	x.relax()
	x.reflag()
	x.emit()
}

// findAffected walks the old levels from b and splits what it reaches into
// A (ws.affected, in level order) and the rejected candidates, which keep
// their distance but lost a parent (ws.kept).
func (x *deletion) findAffected(b uint32) {
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
func (x *deletion) keepsParent(v uint32, dv graph.Dist) bool {
	for _, p := range x.parents(v) {
		if sp := x.at(p); sp.old == dv-1 && sp.flags&inA == 0 {
			return true
		}
	}
	return false
}

// relax computes the new distances of A: each vertex starts from its best
// parent outside A, and the seeds relax inside A in distance order.
func (x *deletion) relax() {
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
func (x *deletion) reflag() {
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
func (x *deletion) covered(v uint32, dv graph.Dist) bool {
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
func (x *deletion) emit() {
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
func (x *deletion) entry(v uint32) {
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
func (x *deletion) order() ordered {
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
