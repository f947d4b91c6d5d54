// Package inchl holds the names the benchmark module's layer trace
// (bench/trace) still uses for the undirected labelled index. IncHL+ and
// DecHL themselves are the edge updates of internal/hcl (hcl.Labelled).
package inchl

import "repro/internal/hcl"

// Updater is the undirected labelled index with the trace's two-argument
// InsertEdge. Only bench/trace still uses it.
type Updater struct{ *hcl.Index }

// Stats reports what one update did. Only bench/trace still names it.
type Stats = hcl.Stats

// New returns an Updater maintaining idx. Only bench/trace still calls it.
func New(idx *hcl.Index) *Updater { return &Updater{idx} }

// InsertEdge inserts the undirected edge (a,b) (hcl.Labelled.InsertEdge).
// Only bench/trace still calls it.
func (u *Updater) InsertEdge(a, b uint32) (Stats, error) { return u.Index.InsertEdge(a, b, 1) }
