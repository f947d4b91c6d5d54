// Package inchl implements IncHL+, the online incremental algorithm of
// Farhan & Wang (EDBT 2021) that maintains a highway cover labelling under
// edge and vertex insertions while preserving labelling minimality.
//
// For an inserted edge (a,b) the algorithm runs, per landmark r:
//
//   - FindAffected (Algorithm 2): a "jumped" BFS that starts directly at b
//     with depth Q(r,a,Γ)+1 (Lemma 4.4) and collects exactly the vertices
//     with a shortest path to r through (a,b) (Lemma 4.3) — the affected set
//     Λ_r. Landmarks with d_G(r,a) = d_G(r,b) are skipped outright since
//     Λ_r = ∅ for them.
//   - RepairAffected (Algorithm 3): a pass over Λ_r in BFS level order that
//     distinguishes covered vertices (some new shortest path to r passes
//     through another landmark — their r-entry is removed, Lemma 4.6) from
//     uncovered ones (their r-entry is set to the new exact distance), and
//     refreshes the highway rows of affected landmarks.
//
// Deviation from the paper's pseudocode, for correctness: Algorithm 1
// interleaves find and repair per landmark, but a repair mutates label
// entries and highway cells that later Q(r,·,Γ) calls consult, which can
// make those queries return mixed old/new-graph distances and miss affected
// vertices. We therefore run the find phase for all landmarks against the
// unmodified labelling, caching the old distances of every scanned vertex
// (the cache the paper alludes to in its complexity analysis), and only then
// repair. The repair pass classifies each affected vertex by scanning its
// shortest-path parents — the ∃-covered-parent test of Lemma 4.6 — which is
// the same classification the paper's two-queue formulation computes.
//
// Both phases are landmark-independent, so each update fans per-landmark
// find+repair tasks across the labelling's workers through the repair
// engine of internal/hcl (hcl.Repair): tasks read the frozen pre-repair
// labelling and buffer their edits as deltas, and a single-threaded merge
// applies them in rank order, byte-identical to the serial loop. Per-update
// state lives in epoch-stamped per-worker scratch drawn from a package
// pool, so steady-state updates allocate only the small per-landmark result
// slices.
package inchl

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/queue"
)

// RepairStrategy selects how labels of affected vertices are repaired.
type RepairStrategy int

const (
	// RepairPartial is IncHL+'s repair: a pass over the affected vertices
	// only, using the covered/uncovered distinction of Lemma 4.6.
	RepairPartial RepairStrategy = iota
	// RepairRebuild recomputes the full labelling of every landmark with a
	// non-empty affected set by re-running its construction BFS. It is the
	// ablation baseline quantifying what the partial repair saves.
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

// scratch is one worker's update state: the core's scratch for the
// RepairRebuild search and DecHL's local repair, and epoch-stamped
// distance arrays for the find/classify phases. A slot of a stamped array
// is valid only when its stamp equals the current epoch, so per-task
// resets are O(1) — each task bumps the epoch of the scratch it runs on. Stamps never exceed their
// scratch's epoch, and that invariant survives pooling because stamps and
// epoch travel together.
type scratch struct {
	hcl.Scratch

	epoch    uint32
	oldStamp []uint32     // stamps for oldVal
	oldVal   []graph.Dist // cached pre-update distances d_G(r,·)
	newStamp []uint32     // stamps for newVal (doubles as the visited set)
	newVal   []graph.Dist // new distances of affected vertices
	covStamp []uint32     // stamps for covVal
	covVal   []bool       // covered classification of processed vertices

	q queue.PairQueue
}

var scratches hcl.Pool[scratch]

// ensure sizes the stamped arrays for n vertices. Fresh slots carry stamp
// 0, which bump guarantees is never the current epoch.
func (s *scratch) ensure(n int) {
	s.oldStamp, s.oldVal = hcl.Grow(s.oldStamp, n), hcl.Grow(s.oldVal, n)
	s.newStamp, s.newVal = hcl.Grow(s.newStamp, n), hcl.Grow(s.newVal, n)
	s.covStamp, s.covVal = hcl.Grow(s.covStamp, n), hcl.Grow(s.covVal, n)
}

// bump starts a fresh validity epoch, clearing stamps on wraparound.
func (s *scratch) bump() {
	if s.epoch == math.MaxUint32 {
		clear(s.oldStamp)
		clear(s.newStamp)
		clear(s.covStamp)
		s.epoch = 0
	}
	s.epoch++
}

// findResult carries one landmark's affected set from the find phase to
// the merge.
type findResult struct {
	skipped  bool
	affected []queue.Pair // BFS level order, depth = new distance
}

// Stats reports what a single update did, feeding the paper's Figure 1
// (affected percentages) and Table 1/Figures 3–4 instrumentation.
type Stats struct {
	LandmarksTotal   int // |R|
	LandmarksSkipped int // d_G(r,a) == d_G(r,b), Λ_r = ∅ (Lemma 4.3)
	AffectedSum      int // Σ_r |Λ_r|
	AffectedUnion    int // |Λ| = |∪_r Λ_r|, the paper's affected vertices
	EntriesAdded     int // label entries added or modified
	EntriesRemoved   int // label entries removed (outdated/redundant)
	HighwayUpdates   int // highway cells refreshed
}

// add counts one merged delta's edits.
func (st *Stats) add(ch hcl.Changes) {
	st.EntriesAdded += ch.Added
	st.EntriesRemoved += ch.Removed
	st.HighwayUpdates += ch.Highway
}

// plus aggregates the counters of a component update.
func (st *Stats) plus(o Stats) {
	st.LandmarksSkipped += o.LandmarksSkipped
	st.AffectedSum += o.AffectedSum
	st.AffectedUnion += o.AffectedUnion
	st.EntriesAdded += o.EntriesAdded
	st.EntriesRemoved += o.EntriesRemoved
	st.HighwayUpdates += o.HighwayUpdates
}

// New returns an Updater maintaining idx.
func New(idx *hcl.Index) *Updater {
	return &Updater{Index: idx}
}

// InsertEdge inserts the undirected edge (a,b) into the graph and repairs
// the labelling so that it is again the minimal highway cover labelling of
// the changed graph. It is Algorithm 1 (IncHL+) of the paper.
//
// Inserting an edge that already exists is an error, matching the paper's
// update model ((a,b) ∉ E); both endpoints must already be vertices (use
// InsertVertex for vertex additions).
func (u *Updater) InsertEdge(a, b uint32) (Stats, error) {
	var st Stats
	g := u.G
	if !g.HasVertex(a) || !g.HasVertex(b) {
		return st, fmt.Errorf("inchl: insert (%d,%d): %w", a, b, graph.ErrVertexUnknown)
	}
	if a == b {
		return st, fmt.Errorf("inchl: insert (%d,%d): %w", a, b, graph.ErrSelfLoop)
	}
	if g.HasEdge(a, b) {
		return st, fmt.Errorf("inchl: insert (%d,%d): %w", a, b, graph.ErrEdgeExists)
	}
	k := u.NumLandmarks()
	st.LandmarksTotal = k

	// The find tasks below read the old labelling, so they see d_G even
	// though the adjacency already contains (a,b) — BFS expansion, not
	// labelled distances, is what needs the new edge.
	if _, err := g.AddEdge(a, b); err != nil {
		return st, fmt.Errorf("inchl: insert (%d,%d): %w", a, b, err)
	}
	finds := make([]findResult, k)
	ds := make([]hcl.Delta, k)
	for r := range ds {
		ds[r].Rank = uint16(r)
	}
	rebuild := u.Strategy == RepairRebuild
	hcl.Repair(&u.Core, &scratches, ds, rebuild, func(sc *scratch, r int, d *hcl.Delta) {
		fr := &finds[r]
		if fr.skipped = !u.findAffected(sc, fr, d.Rank, a, b); fr.skipped {
			return
		}
		if rebuild {
			u.RebuildBFS(&sc.Scratch, d, g.Neighbors)
		} else {
			u.classifyAffected(sc, fr, d)
		}
	})
	for r := range finds {
		if finds[r].skipped {
			st.LandmarksSkipped++
			continue
		}
		st.AffectedSum += len(finds[r].affected)
		st.add(ds[r].Changes())
	}
	st.AffectedUnion = u.countDistinct(func(see func(uint32)) {
		for _, fr := range finds {
			for _, p := range fr.affected {
				see(p.V)
			}
		}
	})
	return st, nil
}

// InsertVertex adds a new vertex connected to the given existing neighbours
// (the paper's node insertion: a new node plus a set of edge insertions,
// processed as sequential edge insertions). It returns the new vertex id
// and statistics aggregated over the component insertions.
func (u *Updater) InsertVertex(neighbors []uint32) (uint32, Stats, error) {
	var agg Stats
	g := u.G
	for _, w := range neighbors {
		if !g.HasVertex(w) {
			return 0, agg, fmt.Errorf("inchl: insert vertex: neighbour %d: %w", w, graph.ErrVertexUnknown)
		}
	}
	v := g.AddVertex()
	u.EnsureVertex(v)
	agg.LandmarksTotal = u.NumLandmarks()
	for _, w := range neighbors {
		st, err := u.InsertEdge(v, w)
		if err != nil {
			return v, agg, err
		}
		agg.plus(st)
	}
	return v, agg, nil
}

// countDistinct counts the distinct vertices visit reports, on a fresh
// epoch of a pooled scratch's covered stamps.
func (u *Updater) countDistinct(visit func(see func(uint32))) int {
	sc := scratches.Get()
	defer scratches.Put(sc)
	sc.ensure(u.G.NumVertices())
	sc.bump()
	count := 0
	visit(func(v uint32) {
		if sc.covStamp[v] != sc.epoch {
			sc.covStamp[v] = sc.epoch
			count++
		}
	})
	return count
}

// findAffected is Algorithm 2: the jumped BFS from b collecting Λ_r into fr.
// It reports false when landmark r can be eliminated because
// d_G(r,a) = d_G(r,b). The scratch epoch it stamps old/new distances under
// stays current for the fused classifyAffected that follows.
func (u *Updater) findAffected(sc *scratch, fr *findResult, r uint16, a, b uint32) bool {
	da := u.LandmarkDist(r, a)
	db := u.LandmarkDist(r, b)
	if da == db {
		return false // Λ_r = ∅ (no shortest path can use (a,b))
	}
	if db < da {
		a, b = b, a
		da, db = db, da
	}
	sc.ensure(u.G.NumVertices())
	sc.bump()
	e := sc.epoch
	sc.oldStamp[a], sc.oldVal[a] = e, da
	sc.oldStamp[b], sc.oldVal[b] = e, db
	pi := graph.AddDist(da, 1) // new depth of b (Lemma 4.4 jump)

	sc.q.Reset()
	sc.q.Push(queue.Pair{V: b, D: pi})
	sc.newStamp[b], sc.newVal[b] = e, pi
	for !sc.q.Empty() {
		p := sc.q.Pop()
		fr.affected = append(fr.affected, p)
		next := graph.AddDist(p.D, 1)
		for _, w := range u.G.Neighbors(p.V) {
			if sc.newStamp[w] == e {
				continue // already affected (visited)
			}
			old := sc.oldVal[w]
			if sc.oldStamp[w] != e {
				old = u.LandmarkDist(r, w)
				sc.oldStamp[w], sc.oldVal[w] = e, old
			}
			if old >= next {
				sc.newStamp[w], sc.newVal[w] = e, next
				sc.q.Push(queue.Pair{V: w, D: next})
			}
		}
	}
	return true
}

// classifyAffected is Algorithm 3: it walks Λ_r in BFS level order and, for
// each affected vertex, decides coverage by Lemma 4.6 — the vertex is
// covered iff it is a landmark, or some shortest-path parent (a neighbour
// at new distance d-1) is a landmark other than r or is itself covered.
// Covered vertices lose their r-entry; uncovered ones get the exact new
// distance. It runs fused with findAffected on the same scratch epoch, so
// the old/new distance stamps are already in place; edits go to the delta,
// with the entry checks exact because only rank r ever touches r-entries.
func (u *Updater) classifyAffected(sc *scratch, fr *findResult, d *hcl.Delta) {
	r := d.Rank
	root := u.Landmarks[r]
	e := sc.epoch
	for _, p := range fr.affected {
		w, dd := p.V, p.D
		if s, isL := u.Rank(w); isL {
			d.Cell(s, dd)
			sc.covStamp[w], sc.covVal[w] = e, true
			continue
		}
		cov := false
		for _, n := range u.G.Neighbors(w) {
			var nd graph.Dist
			affected := sc.newStamp[n] == e
			if affected {
				nd = sc.newVal[n]
			} else if sc.oldStamp[n] == e {
				nd = sc.oldVal[n] // unaffected: old distance = new distance
			} else {
				continue // never scanned — cannot be a shortest-path parent
			}
			if nd != dd-1 {
				continue
			}
			if affected {
				if sc.covStamp[n] == e && sc.covVal[n] {
					cov = true
					break
				}
				continue
			}
			if u.IsLandmark(n) {
				if n != root {
					cov = true
					break
				}
				continue
			}
			if _, hasEntry := u.EntryDist(n, r); !hasEntry {
				cov = true // unaffected non-landmark without an r-entry is covered
				break
			}
		}
		sc.covStamp[w], sc.covVal[w] = e, cov
		if !cov {
			d.Set(w, dd)
		} else if _, had := u.EntryDist(w, r); had {
			d.Remove(w)
		}
	}
}
