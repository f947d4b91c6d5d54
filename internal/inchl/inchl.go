// Package inchl implements IncHL+, the online incremental algorithm of
// Farhan & Wang (EDBT 2021) that maintains a highway cover labelling under
// edge insertions while preserving labelling minimality, and its
// decremental counterpart DecHL, on undirected graphs. The paper treats a
// vertex insertion as a new vertex plus a sequence of edge insertions; the
// root package writes the vertex ops of all three variants that way, over
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
// DecHL covers the deletions the paper leaves out. Removing (a,b) can
// change landmark r's labelling — its distances or the covered flags of
// its shortest-path DAG — only when the edge lies on that DAG, i.e. when
// |d_G(r,a) − d_G(r,b)| = 1, so the affected test is two labelled lookups
// and no search. Each affected landmark is repaired locally from the
// endpoint one level further from it (hcl.RepairDeletion, whose file
// comment gives the method and why its edits equal a fresh build's).
//
// Both updates are the edge updates of internal/hcl (hcl.InsertEdge and
// hcl.DeleteEdge): one driver runs the tests, the kernels and the
// statistics for all three variants, the directed one once per direction
// and the weighted one in Dijkstra order. This package adds the undirected
// graph's edit and adjacency, and the RepairRebuild ablation.
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

import "repro/internal/hcl"

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
// the changed graph (hcl.InsertEdge). It is Algorithm 1 (IncHL+) of the
// paper.
//
// Inserting an edge that already exists is an error, matching the paper's
// update model ((a,b) ∉ E); both endpoints must already be vertices.
func (u *Updater) InsertEdge(a, b uint32) (Stats, error) {
	g := u.G
	var rebuild func(*hcl.Scratch, *hcl.Delta)
	if u.Strategy == RepairRebuild {
		rebuild = func(ws *hcl.Scratch, d *hcl.Delta) { u.RebuildBFS(ws, d, g.Neighbors, g.Neighbors) }
	}
	return hcl.InsertEdge(&u.Core, g, a, b, 1, func() error {
		_, err := g.AddEdge(a, b)
		return err
	}, hcl.Undirected(g.Neighbors), rebuild)
}

// DeleteEdge removes the undirected edge (a,b) from the graph and repairs
// the labelling so that it is again the minimal highway cover labelling of
// the changed graph (hcl.DeleteEdge, DecHL). Deleting an edge that does
// not exist is an error (graph.ErrEdgeUnknown), mirroring InsertEdge's
// update model.
func (u *Updater) DeleteEdge(a, b uint32) (Stats, error) {
	g := u.G
	return hcl.DeleteEdge(&u.Core, g, a, b, 1, func() error { return g.RemoveEdge(a, b) }, hcl.Undirected(g.Neighbors))
}
