// Package inchl implements IncHL+, the online incremental algorithm of
// Farhan & Wang (EDBT 2021) that maintains a highway cover labelling under
// edge insertions while preserving labelling minimality, and its
// decremental counterpart DecHL (dechl.go). The paper treats a vertex
// insertion as a new vertex plus a sequence of edge insertions; the root
// package writes the vertex ops of all three variants that way, over
// their edge updates.
//
// For an inserted edge (a,b) the algorithm runs, per landmark r:
//
//   - The Lemma 4.3 test: landmarks with d_G(r,a) = d_G(r,b) are skipped
//     outright since no shortest path can use the edge, so Λ_r = ∅.
//   - FindAffected (Algorithm 2): a "jumped" BFS that starts directly at
//     the farther endpoint b with depth Q(r,a,Γ)+1 (Lemma 4.4) and collects
//     exactly the vertices with a shortest path to r through (a,b) — the
//     affected set Λ_r.
//   - RepairAffected (Algorithm 3): a pass over Λ_r in BFS level order that
//     distinguishes covered vertices (some new shortest path to r passes
//     through another landmark — their r-entry is removed, Lemma 4.6) from
//     uncovered ones (their r-entry is set to the new exact distance), and
//     refreshes the highway rows of affected landmarks.
//
// The find and repair phases are the insertion kernel of internal/hcl
// (hcl.RepairInsertion), which the directed variant runs once per
// direction and the weighted one with Dijkstra order; this package
// supplies the skip test, the jump and the statistics.
//
// Deviation from the paper's pseudocode, for correctness: Algorithm 1
// interleaves find and repair per landmark, but a repair mutates label
// entries and highway cells that later Q(r,·,Γ) calls consult, which can
// make those queries return mixed old/new-graph distances and miss affected
// vertices. Every landmark's task therefore reads the unmodified labelling
// and only buffers its edits; the repair engine of internal/hcl
// (hcl.Repair) fans the per-landmark tasks across the labelling's workers
// and a single-threaded merge applies them in rank order, byte-identical to
// the serial loop. Tasks draw their per-vertex state from the pooled
// scratch of internal/hcl, so steady-state updates allocate only the small
// per-landmark affected lists.
package inchl

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hcl"
)

// RepairStrategy selects how labels of affected vertices are repaired.
type RepairStrategy int

const (
	// RepairPartial is IncHL+'s repair: a pass over the affected vertices
	// only, using the covered/uncovered distinction of Lemma 4.6.
	RepairPartial RepairStrategy = iota
	// RepairRebuild recomputes the full labelling of every landmark the
	// Lemma 4.3 test keeps by re-running its construction BFS, with no
	// find or classify pass. It is the ablation baseline quantifying what
	// the partial repair saves.
	RepairRebuild
)

// Updater maintains a highway cover labelling under insertions and
// deletions. The index's Workers and RepairTimer tune the per-landmark
// fan-out of every update (see hcl.Core). It is not safe for concurrent
// use: the fan-out inside an update is internal, and at most one update
// runs at a time.
type Updater struct {
	*hcl.Index

	// Strategy selects the repair implementation (default RepairPartial).
	Strategy RepairStrategy
}

// Stats reports what a single update did.
type Stats = hcl.Stats

// New returns an Updater maintaining idx.
func New(idx *hcl.Index) *Updater {
	return &Updater{Index: idx}
}

// InsertEdge inserts the undirected edge (a,b) into the graph and repairs
// the labelling so that it is again the minimal highway cover labelling of
// the changed graph. It is Algorithm 1 (IncHL+) of the paper.
//
// Inserting an edge that already exists is an error, matching the paper's
// update model ((a,b) ∉ E); both endpoints must already be vertices.
func (u *Updater) InsertEdge(a, b uint32) (Stats, error) {
	var st Stats
	g := u.G
	if err := hcl.CheckInsert(g, a, b); err != nil {
		return st, err
	}
	k := u.NumLandmarks()
	st.LandmarksTotal = k

	// The tasks below read the old labelling, so they see d_G even though
	// the adjacency already contains (a,b) — BFS expansion, not labelled
	// distances, is what needs the new edge.
	if _, err := g.AddEdge(a, b); err != nil {
		return st, fmt.Errorf("inchl: insert (%d,%d): %w", a, b, err)
	}
	skipped := make([]bool, k)
	affected := make([][]uint32, k) // Λ_r in level order
	ds := make([]hcl.Delta, k)
	for r := range ds {
		ds[r].Rank = uint16(r)
	}
	rebuild := u.Strategy == RepairRebuild
	hcl.Repair(&u.Core, ds, rebuild, func(ws *hcl.Scratch, r int, d *hcl.Delta) {
		head, pi, ok := u.jump(d.Rank, a, b)
		switch {
		case !ok:
			skipped[r] = true
		case rebuild:
			u.RebuildBFS(ws, d, g.Neighbors, g.Neighbors)
		default:
			affected[r] = hcl.RepairInsertion(&u.Core, ws, d, head, pi, g.Neighbors, g.Neighbors, nil)
		}
	})
	for r := range ds {
		switch {
		case skipped[r]:
			st.LandmarksSkipped++
		case rebuild:
			st.AddEdits(ds[r : r+1])
		default:
			st.Add(ds[r].Changes())
			st.AffectedSum += len(affected[r])
		}
	}
	st.AffectedUnion = u.CountDistinct(func(see func(uint32)) {
		for r := range ds {
			if rebuild {
				u.Touched(&ds[r], see)
			}
			for _, v := range affected[r] {
				see(v)
			}
		}
	})
	return st, nil
}

// jump is the Lemma 4.3 and 4.4 step of landmark r for the new edge (a,b):
// it returns the endpoint farther from r and its depth in the jumped BFS,
// one more than the nearer endpoint's distance, or ok=false when
// d_G(r,a) = d_G(r,b) and so Λ_r = ∅.
func (u *Updater) jump(r uint16, a, b uint32) (head uint32, pi graph.Dist, ok bool) {
	da, db := u.LandmarkDist(r, a), u.LandmarkDist(r, b)
	if da == db {
		return 0, 0, false
	}
	if db < da {
		b, da = a, db
	}
	return b, da + 1, true
}
