// The edge updates of all three variants. An update checks the edge, edits
// the graph, and repairs every (landmark, label direction) pass the Lemma
// 4.3 test keeps, as one task of the repair engine (repair.go) each: IncHL+
// (Algorithm 1 of the paper) for an insertion, DecHL for a deletion, both
// run by the local kernels of delete.go. The variants differ only in how a
// pass orients the edge — an undirected edge may be walked either way, a
// directed pass walks a→b forward and b→a backward — and in its length, 1
// or the weight; both follow from the labelling's kind and the arc type, so
// a variant supplies only its graph edit and its adjacency.

package hcl

import (
	"fmt"

	"repro/internal/graph"
)

// Adjacency is the arcs the passes of each label direction walk: the
// children a search expands and their reverse arcs, the parents.
type Adjacency[A Arc] struct{ children, parents [2]func(uint32) []A }

// Undirected is the adjacency of an undirected graph: its one direction's
// passes walk the neighbours, both ways.
func Undirected[A Arc](neighbors func(uint32) []A) Adjacency[A] {
	return Adjacency[A]{children: [2]func(uint32) []A{neighbors}, parents: [2]func(uint32) []A{neighbors}}
}

// Directed is the adjacency of a directed graph: its forward passes walk
// out-arcs, with in-arcs as parents, and its backward passes the reverse.
func Directed[A Arc](out, in func(uint32) []A) Adjacency[A] {
	return Adjacency[A]{children: [2]func(uint32) []A{out, in}, parents: [2]func(uint32) []A{in, out}}
}

// InsertEdge inserts the edge (a,b) of length w, an arc a→b on a directed
// labelling, and repairs c so that it is again the minimal highway cover
// labelling of the changed graph. It is Algorithm 1 (IncHL+) of the paper.
// The edge must be new and join two distinct vertices of g, which add then
// inserts it into. Each pass is one task: its Lemma 4.3 test, then the
// jumped search from the endpoint farther from the landmark at d(r, near) +
// w (RepairInsertion), or rebuild — the ablation's full covered-flag
// search — when it is non-nil.
//
// The tasks read the old labelling, so they see d_G even though the
// adjacency already holds (a,b): the searches' expansion, not labelled
// distances, is what needs the new edge.
func InsertEdge[A Arc](c *Core, g graph.EdgeSet, a, b uint32, w graph.Dist, add func() error, adj Adjacency[A], rebuild func(ws *Scratch, d *Delta)) (Stats, error) {
	if err := CheckInsert(g, a, b, w); err != nil {
		return Stats{}, err
	}
	if err := add(); err != nil {
		return Stats{}, fmt.Errorf("hcl: insert (%d,%d): %w", a, b, err)
	}
	ds := c.passes()
	skipped := make([]bool, len(ds))
	affected := make([][]uint32, len(ds)) // Λ of each pass, in distance order
	Repair(c, ds, rebuild != nil, func(ws *Scratch, t int, d *Delta) {
		head, near, far := c.orient(d, a, b)
		pi := graph.AddDist(near, w)
		switch {
		case near == graph.Inf || pi > far: // no shortest path can use the edge
			skipped[t] = true
		case rebuild != nil:
			rebuild(ws, d)
		default:
			affected[t] = RepairInsertion(c, ws, d, head, pi, adj.children[d.Dir], adj.parents[d.Dir], nil)
		}
	})
	st := Stats{LandmarksTotal: len(c.Landmarks)}
	for t := range ds {
		switch {
		case skipped[t]:
			st.LandmarksSkipped++
		case rebuild != nil:
			st.AddEdits(ds[t : t+1])
		default:
			st.Add(ds[t].Changes())
			st.AffectedSum += len(affected[t])
		}
	}
	if c.kind == undirected { // the paper's affected-vertex figure; see Stats
		st.AffectedUnion = c.CountDistinct(func(see func(uint32)) {
			for t := range ds {
				if rebuild != nil {
					c.Touched(&ds[t], see)
				}
				for _, v := range affected[t] {
					see(v)
				}
			}
		})
	}
	return st, nil
}

// DeleteEdge removes the edge (a,b) of length w, an arc a→b on a directed
// labelling, and repairs c so that it is again the minimal highway cover
// labelling of the changed graph (DecHL). The edge must be an edge of g,
// which remove then deletes it from. A pass is affected only when the edge
// lies on its landmark's shortest-path DAG, d(r, near) + w = d(r, far);
// the test reads the pre-delete labelling, and each affected pass is
// repaired from the far endpoint by RepairDeletion.
func DeleteEdge[A Arc](c *Core, g graph.EdgeSet, a, b uint32, w graph.Dist, remove func() error, adj Adjacency[A]) (Stats, error) {
	if err := CheckDelete(g, a, b); err != nil {
		return Stats{}, err
	}
	st := Stats{LandmarksTotal: len(c.Landmarks)}
	all := c.passes()
	ds := all[:0]                        // the affected passes
	heads := make([]uint32, 0, len(all)) // and their far endpoints
	for _, d := range all {
		head, near, far := c.orient(&d, a, b)
		if near == graph.Inf || graph.AddDist(near, w) != far {
			st.LandmarksSkipped++
			continue
		}
		ds, heads = append(ds, d), append(heads, head)
	}
	if err := remove(); err != nil {
		return st, fmt.Errorf("hcl: delete (%d,%d): %w", a, b, err)
	}
	Repair(c, ds, true, func(ws *Scratch, t int, d *Delta) {
		RepairDeletion(c, ws, d, heads[t], adj.children[d.Dir], adj.parents[d.Dir])
	})
	// Every change a repair made touches one vertex: AffectedSum counts
	// them, AffectedUnion the distinct vertices.
	st.AddEdits(ds)
	if c.kind == undirected {
		st.AffectedUnion = c.CountDistinct(func(see func(uint32)) {
			for t := range ds {
				c.Touched(&ds[t], see)
			}
		})
	}
	return st, nil
}

// orient returns the far end of the edge (a,b) in the pass d and the old
// distances of its near and far ends from the pass's landmark. A directed
// labelling's forward pass walks the arc a→b and its backward pass b→a; an
// undirected edge may be walked either way, so its far end is the one the
// landmark reaches later.
func (c *Core) orient(d *Delta, a, b uint32) (head uint32, near, far graph.Dist) {
	if d.Dir == 1 {
		a, b = b, a
	}
	near, far = c.PassDist(d.Dir, d.Rank, a), c.PassDist(d.Dir, d.Rank, b)
	if c.kind.Dirs == 1 && far < near {
		return a, far, near
	}
	return b, near, far
}
