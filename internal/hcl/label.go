// Package hcl implements highway cover labelling (Farhan et al., EDBT 2019),
// the distance-labelling substrate that IncHL+ (Farhan & Wang, EDBT 2021)
// maintains incrementally: per-vertex landmark distance labels, the
// landmark-to-landmark highway, static construction, and the exact
// upper-bound + bounded-search query of Section 3 of the paper. One
// labelled index (labelled.go) serves the undirected, directed and
// weighted variants over its Core (core.go), repair engine (repair.go) and
// edge updates (update.go); each graph type supplies only its substrate
// (substrate.go).
package hcl

import "repro/internal/graph"

// Entry is one distance entry (r_i, δ_L(r_i, v)) of a vertex label. The
// landmark is identified by its rank (index into Index.Landmarks), not by
// vertex id, so entries pack into six meaningful bytes as in compact C++
// implementations.
type Entry struct {
	Rank uint16     // landmark rank in Index.Landmarks
	D    graph.Dist // exact distance d_G(landmark, v)
}

// EntryBytes is the storage cost charged per label entry when reporting
// labelling sizes (2-byte landmark rank + 4-byte distance), mirroring how
// the paper's implementation accounts for label storage.
const EntryBytes = 6

// Label is the sorted-by-rank set of distance entries of one vertex.
type Label []Entry

// Get returns the distance recorded for landmark rank r, if present.
func (l Label) Get(r uint16) (graph.Dist, bool) { return FindEntry(l, r) }

// entryScanMax is the span length above which FindEntry switches from the
// early-exit linear scan to binary search. Labels are usually a handful of
// entries (bounded by |R|), where the scan's lack of branch mispredictions
// wins; large-|R| deployments cross into sort.Search territory.
const entryScanMax = 16

// FindEntry returns the distance recorded for landmark rank r in the
// sorted-by-rank entry span es. It is the one shared lookup behind
// Label.Get and Core.Entry: all three variants resolve entries through
// it.
func FindEntry(es []Entry, r uint16) (graph.Dist, bool) {
	if len(es) > entryScanMax {
		// sort.Search specialised to the span, saving the indirect
		// comparison call on a path run once per label lookup.
		lo, hi := 0, len(es)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if es[mid].Rank < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(es) && es[lo].Rank == r {
			return es[lo].D, true
		}
		return graph.Inf, false
	}
	for _, e := range es {
		if e.Rank == r {
			return e.D, true
		}
		if e.Rank > r {
			break
		}
	}
	return graph.Inf, false
}

// Equal reports whether two labels hold identical entries.
func (l Label) Equal(o Label) bool {
	if len(l) != len(o) {
		return false
	}
	for i := range l {
		if l[i] != o[i] {
			return false
		}
	}
	return true
}
