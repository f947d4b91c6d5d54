package main

import (
	"fmt"
	"time"

	"repro/bench/workload"
	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/inchl"
	"repro/internal/wgraph"
	"repro/internal/whcl"
)

// chain is one variant's layer stack below the Store, driven function by
// function: the Eq. 2 bound and bounded search of a read, and the graph
// fork, label fork, repair and pack of a write. The unweighted stack is
// graph/hcl/inchl/bfs, the weighted one wgraph/whcl/wgraph.
type chain interface {
	// bound evaluates Eq. 2 and reports |L(u)|+|L(v)| and whether the
	// query needs the search at all (the index answers landmark endpoints
	// and bounds ≤ 1 exactly).
	bound(u, v uint32) (top uint32, entries int, search bool)
	// search runs the top-bounded bidirectional search on G[V\R].
	search(u, v, top uint32) (d uint32, touched int)
	forkGraph()
	forkLabels()
	// repair applies op to the forked graph and labelling; timer sees
	// every per-landmark task.
	repair(op workload.Op, timer func(time.Duration)) (repairStats, error)
	pack()
	bytesPerVertex() float64
	query(u, v uint32) uint32
}

type repairStats struct{ landmarks, skipped, affected int }

// plain is the unweighted stack. g and idx are the newest fork; gNext and
// idxNext hold the write in flight between forkGraph and pack.
type plain struct {
	idx     *hcl.Index
	gNext   *graph.Graph
	idxNext *hcl.Index
	qs      *bfs.QuerySpace
}

func newPlain(g *graph.Graph, landmarks []uint32) (*plain, error) {
	idx, err := hcl.BuildParallel(g, landmarks, 0)
	if err != nil {
		return nil, err
	}
	idx.Pack()
	var pool bfs.SpacePool
	return &plain{idx: idx, qs: pool.Get(g.NumVertices())}, nil
}

func (p *plain) bound(u, v uint32) (uint32, int, bool) {
	lu, lv := p.idx.PackedLabels().Label(u), p.idx.PackedLabels().Label(v)
	top := p.idx.UpperBound(u, v)
	return top, len(lu) + len(lv), u != v && top > 1 && !p.idx.IsLandmark(u) && !p.idx.IsLandmark(v)
}

func (p *plain) search(u, v, top uint32) (uint32, int) {
	d := bfs.Sparsified(p.idx.G, u, v, top, p.idx.IsLandmark, p.qs)
	return d, len(p.qs.Touched)
}

func (p *plain) forkGraph()  { p.gNext = p.idx.G.Fork() }
func (p *plain) forkLabels() { p.idxNext = p.idx.Fork(p.gNext) }

func (p *plain) repair(op workload.Op, timer func(time.Duration)) (repairStats, error) {
	upd := inchl.New(p.idxNext) // the Store's fork builds a fresh updater too
	upd.RepairTimer = timer
	var st inchl.Stats
	var err error
	switch op.Kind {
	case workload.DeleteEdge:
		st, err = upd.DeleteEdge(op.U, op.V)
	case workload.InsertEdge:
		st, err = upd.InsertEdge(op.U, op.V)
	default:
		err = fmt.Errorf("unknown op %v", op)
	}
	return repairStats{st.LandmarksTotal, st.LandmarksSkipped, st.AffectedUnion}, err
}

func (p *plain) pack() {
	p.idxNext.Pack()
	p.idx, p.gNext, p.idxNext = p.idxNext, nil, nil
}

func (p *plain) bytesPerVertex() float64 {
	return float64(p.idx.PackedLabels().ArenaBytes()) / float64(p.idx.G.NumVertices())
}

func (p *plain) query(u, v uint32) uint32 { return p.idx.Query(u, v) }

// weighted is the weighted stack.
type weighted struct {
	idx     *whcl.Index
	gNext   *wgraph.Graph
	idxNext *whcl.Index
	qs      *wgraph.QuerySpace
}

func newWeighted(g *wgraph.Graph, landmarks []uint32) (*weighted, error) {
	idx, err := whcl.BuildParallel(g, landmarks, 0)
	if err != nil {
		return nil, err
	}
	idx.Pack()
	var pool wgraph.SpacePool
	return &weighted{idx: idx, qs: pool.Get(g.NumVertices())}, nil
}

func (w *weighted) isLandmark(x uint32) bool {
	_, ok := w.idx.Rank(x)
	return ok
}

func (w *weighted) bound(u, v uint32) (uint32, int, bool) {
	lu, lv := w.idx.PackedLabels().Label(u), w.idx.PackedLabels().Label(v)
	top := w.idx.UpperBound(u, v)
	return top, len(lu) + len(lv), u != v && !w.isLandmark(u) && !w.isLandmark(v)
}

func (w *weighted) search(u, v, top uint32) (uint32, int) {
	d := w.idx.G.Sparsified(u, v, top, w.isLandmark, w.qs)
	return d, len(w.qs.Touched)
}

func (w *weighted) forkGraph()  { w.gNext = w.idx.G.Fork() }
func (w *weighted) forkLabels() { w.idxNext = w.idx.Fork(w.gNext) }

func (w *weighted) repair(op workload.Op, timer func(time.Duration)) (repairStats, error) {
	w.idxNext.RepairTimer = timer
	var st whcl.Stats
	var err error
	switch op.Kind {
	case workload.DeleteEdge:
		st, err = w.idxNext.DeleteEdge(op.U, op.V)
	case workload.InsertEdge:
		st, err = w.idxNext.InsertEdge(op.U, op.V, op.W)
	default:
		err = fmt.Errorf("unknown op %v", op)
	}
	w.idxNext.RepairTimer = nil
	return repairStats{st.LandmarksTotal, st.LandmarksSkipped, st.AffectedSum}, err
}

func (w *weighted) pack() {
	w.idxNext.Pack()
	w.idx, w.gNext, w.idxNext = w.idxNext, nil, nil
}

func (w *weighted) bytesPerVertex() float64 {
	return float64(w.idx.PackedLabels().ArenaBytes()) / float64(w.idx.G.NumVertices())
}

func (w *weighted) query(u, v uint32) uint32 { return w.idx.Query(u, v) }
