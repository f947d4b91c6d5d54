package dynhl

import (
	"maps"

	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/wgraph"
	"repro/internal/whcl"
)

// opCheck is an index variant's validity pre-pass: a mutator whose methods
// run the checks of the variant's own methods, through the same check
// functions, and record only the graph edit, with no label repair. Running
// a batch through applyOps on one therefore fails exactly where the real
// batch would, with the same OpError, at the cost of what the batch
// touches. fork branches it, so a rejected batch's edits drop with its
// branch.
type opCheck interface {
	mutator
	fork() opCheck
}

// overlay is the graph a validity pre-pass edits: a frozen graph, the base,
// and the edits of the ops validated on top of it. It answers the checks'
// questions (graph.EdgeSet) as the base with the edits applied.
type overlay struct {
	base     graph.EdgeSet
	n        uint32             // vertex count after the edits
	edits    map[[2]uint32]bool // edited edges: added (true) or removed (false)
	directed bool               // edges are ordered pairs
}

func newOverlay(base graph.EdgeSet, n int, directed bool) overlay {
	return overlay{base: base, n: uint32(n), edits: map[[2]uint32]bool{}, directed: directed}
}

func (o overlay) fork() overlay {
	o.edits = maps.Clone(o.edits)
	return o
}

func (o *overlay) key(u, v uint32) [2]uint32 {
	if !o.directed && u > v {
		u, v = v, u
	}
	return [2]uint32{u, v}
}

func (o *overlay) HasVertex(v uint32) bool { return v < o.n }

func (o *overlay) HasEdge(u, v uint32) bool {
	if e, ok := o.edits[o.key(u, v)]; ok {
		return e
	}
	return o.base.HasEdge(u, v)
}

func (o *overlay) set(u, v uint32, present bool) { o.edits[o.key(u, v)] = present }

func (o *overlay) addVertex() uint32 {
	o.n++
	return o.n - 1
}

// isolate removes every edge at v: the base's (out-)neighbours of v, then
// the edges the edits added. On a directed overlay it removes the arcs out
// of v from out and those into v from in; undirected, in is nil.
func (o *overlay) isolate(v uint32, out, in []uint32) {
	for _, w := range out {
		o.set(v, w, false)
	}
	for _, w := range in {
		o.set(w, v, false)
	}
	for k, e := range o.edits {
		if e && (k[0] == v || k[1] == v) {
			o.edits[k] = false
		}
	}
}

// indexCheck is the Index's opCheck.
type indexCheck struct {
	overlay
	g *graph.Graph
	c *hcl.Core
}

// checker returns the validity pre-pass over x's graph.
func (x *Index) checker() opCheck {
	g := x.upd.G
	return &indexCheck{overlay: newOverlay(g, g.NumVertices(), false), g: g, c: &x.upd.Core}
}

func (k *indexCheck) fork() opCheck { return &indexCheck{overlay: k.overlay.fork(), g: k.g, c: k.c} }

func (k *indexCheck) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	if err := unitWeight("undirected", w); err != nil {
		return UpdateSummary{}, err
	}
	if err := hcl.CheckInsert(k, u, v); err != nil {
		return UpdateSummary{}, err
	}
	k.set(u, v, true)
	return UpdateSummary{}, nil
}

func (k *indexCheck) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	if err := hcl.CheckDelete(k, u, v); err != nil {
		return UpdateSummary{}, err
	}
	k.set(u, v, false)
	return UpdateSummary{}, nil
}

func (k *indexCheck) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	neighbors, err := plainNeighbors("undirected", arcs)
	if err == nil {
		err = hcl.CheckNeighbors(k, neighbors)
	}
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	id := k.addVertex()
	for _, w := range neighbors {
		if err := hcl.CheckInsert(k, id, w); err != nil {
			return 0, UpdateSummary{}, err
		}
		k.set(id, w, true)
	}
	return id, UpdateSummary{}, nil
}

func (k *indexCheck) DeleteVertex(v uint32) (UpdateSummary, error) {
	if err := hcl.CheckDeleteVertex(k, k.c, v); err != nil {
		return UpdateSummary{}, err
	}
	var ns []uint32
	if k.g.HasVertex(v) {
		ns = k.g.Neighbors(v)
	}
	k.isolate(v, ns, nil)
	return UpdateSummary{}, nil
}

// directedCheck is the DirectedIndex's opCheck.
type directedCheck struct {
	overlay
	g *digraph.Digraph
	c *hcl.Core
}

// checker returns the validity pre-pass over x's graph.
func (x *DirectedIndex) checker() opCheck {
	g := x.idx.G
	return &directedCheck{overlay: newOverlay(g, g.NumVertices(), true), g: g, c: &x.idx.Core}
}

func (k *directedCheck) fork() opCheck {
	return &directedCheck{overlay: k.overlay.fork(), g: k.g, c: k.c}
}

func (k *directedCheck) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	if err := unitWeight("directed", w); err != nil {
		return UpdateSummary{}, err
	}
	if err := hcl.CheckInsert(k, u, v); err != nil {
		return UpdateSummary{}, err
	}
	k.set(u, v, true)
	return UpdateSummary{}, nil
}

func (k *directedCheck) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	if err := hcl.CheckDelete(k, u, v); err != nil {
		return UpdateSummary{}, err
	}
	k.set(u, v, false)
	return UpdateSummary{}, nil
}

func (k *directedCheck) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	outTo, inFrom, err := splitArcs(arcs)
	if err == nil {
		err = hcl.CheckNeighbors(k, outTo, inFrom)
	}
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	id := k.addVertex()
	add := func(a, b uint32) error {
		if err := hcl.CheckInsert(k, a, b); err != nil {
			return err
		}
		k.set(a, b, true)
		return nil
	}
	for _, w := range outTo {
		if err := add(id, w); err != nil {
			return 0, UpdateSummary{}, err
		}
	}
	for _, w := range inFrom {
		if err := add(w, id); err != nil {
			return 0, UpdateSummary{}, err
		}
	}
	return id, UpdateSummary{}, nil
}

func (k *directedCheck) DeleteVertex(v uint32) (UpdateSummary, error) {
	if err := hcl.CheckDeleteVertex(k, k.c, v); err != nil {
		return UpdateSummary{}, err
	}
	var out, in []uint32
	if k.g.HasVertex(v) {
		out, in = k.g.Out(v), k.g.In(v)
	}
	k.isolate(v, out, in)
	return UpdateSummary{}, nil
}

// weightedCheck is the WeightedIndex's opCheck.
type weightedCheck struct {
	overlay
	g *wgraph.Graph
	c *hcl.Core
}

// checker returns the validity pre-pass over x's graph.
func (x *WeightedIndex) checker() opCheck {
	g := x.idx.G
	return &weightedCheck{overlay: newOverlay(g, g.NumVertices(), false), g: g, c: &x.idx.Core}
}

func (k *weightedCheck) fork() opCheck {
	return &weightedCheck{overlay: k.overlay.fork(), g: k.g, c: k.c}
}

func (k *weightedCheck) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	if err := whcl.CheckInsert(k, u, v, max(w, 1)); err != nil {
		return UpdateSummary{}, err
	}
	k.set(u, v, true)
	return UpdateSummary{}, nil
}

func (k *weightedCheck) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	if err := hcl.CheckDelete(k, u, v); err != nil {
		return UpdateSummary{}, err
	}
	k.set(u, v, false)
	return UpdateSummary{}, nil
}

func (k *weightedCheck) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	ws, err := weightedArcs(arcs)
	if err == nil {
		err = hcl.CheckNeighbors(k, ws)
	}
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	id := k.addVertex()
	for _, a := range ws {
		if err := whcl.CheckInsert(k, id, a.To, a.W); err != nil {
			return 0, UpdateSummary{}, err
		}
		k.set(id, a.To, true)
	}
	return id, UpdateSummary{}, nil
}

func (k *weightedCheck) DeleteVertex(v uint32) (UpdateSummary, error) {
	if err := hcl.CheckDeleteVertex(k, k.c, v); err != nil {
		return UpdateSummary{}, err
	}
	var ns []uint32
	if k.g.HasVertex(v) {
		for _, a := range k.g.Neighbors(v) {
			ns = append(ns, a.To)
		}
	}
	k.isolate(v, ns, nil)
	return UpdateSummary{}, nil
}
