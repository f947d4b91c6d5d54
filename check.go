package dynhl

import (
	"maps"

	"repro/internal/hcl"
)

// prepass is the validity pre-pass of all three variants: a writer over
// an overlay of an oracle's frozen graph that checks each edit with the
// check its repair would run and records it, with no label work. Its ops
// are the oracle's own (write.go), under the same arc rule, so running a
// batch through applyOps on one fails exactly where the oracle would, with
// the same OpError, at the cost of what the batch touches. fork branches
// it, so a rejected batch's edits drop with its branch.
type prepass struct {
	o     *oracle            // the oracle: its graph, core, arc rule and edges
	n     uint32             // vertex count after the edits
	edits map[[2]uint32]bool // edited edges: added (true) or removed (false)
}

func newPrepass(o *oracle) *prepass {
	return &prepass{o: o, n: uint32(o.g.NumVertices()), edits: map[[2]uint32]bool{}}
}

func (k *prepass) fork() *prepass {
	f := *k
	f.edits = maps.Clone(k.edits)
	return &f
}

func (k *prepass) key(u, v uint32) [2]uint32 {
	if !k.o.rule.directed && u > v {
		u, v = v, u
	}
	return [2]uint32{u, v}
}

// HasVertex and HasEdge answer the checks' questions (graph.EdgeSet) as
// the graph with the edits applied.
func (k *prepass) HasVertex(v uint32) bool { return v < k.n }

func (k *prepass) HasEdge(u, v uint32) bool {
	if e, ok := k.edits[k.key(u, v)]; ok {
		return e
	}
	return k.o.g.HasEdge(u, v)
}

func (k *prepass) insertEdge(u, v uint32, w Dist) (hcl.Stats, error) {
	if err := hcl.CheckInsert(k, u, v, w); err != nil {
		return hcl.Stats{}, err
	}
	k.edits[k.key(u, v)] = true
	return hcl.Stats{}, nil
}

func (k *prepass) deleteEdge(u, v uint32) (hcl.Stats, error) {
	if err := hcl.CheckDelete(k, u, v); err != nil {
		return hcl.Stats{}, err
	}
	k.edits[k.key(u, v)] = false
	return hcl.Stats{}, nil
}

func (k *prepass) addVertex() uint32 {
	k.n++
	return k.n - 1
}

// incident lists the graph's edges at v that the edits kept, then the
// edges the edits added.
func (k *prepass) incident(v uint32) [][2]uint32 {
	var es [][2]uint32
	if k.o.g.HasVertex(v) {
		for _, e := range k.o.incident(v) {
			if k.HasEdge(e[0], e[1]) {
				es = append(es, e)
			}
		}
	}
	for e, added := range k.edits {
		if added && (e[0] == v || e[1] == v) && !k.o.g.HasEdge(e[0], e[1]) {
			es = append(es, e)
		}
	}
	return es
}

func (k *prepass) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	return insertEdge(k, k.o.rule, u, v, w)
}

func (k *prepass) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	return summary(k.deleteEdge(u, v))
}

func (k *prepass) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	arcs, err := k.vertexArcs(arcs)
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	id, _, err := insertVertex(k, arcs)
	return id, UpdateSummary{}, err
}

// vertexArcs reads a new vertex's arcs under the arc rule and checks that
// every neighbour exists, before the vertex is added.
func (k *prepass) vertexArcs(arcs []Arc) ([]Arc, error) {
	arcs, err := k.o.rule.arcs(arcs)
	for i := 0; err == nil && i < len(arcs); i++ {
		err = hcl.CheckNeighbor(k, arcs[i].To)
	}
	return arcs, err
}

// DeleteVertex checks that v is a vertex and no landmark before it
// deletes the edges at v.
func (k *prepass) DeleteVertex(v uint32) (UpdateSummary, error) {
	if err := hcl.CheckDeleteVertex(k, k.o.core, v); err != nil {
		return UpdateSummary{}, err
	}
	_, err := deleteVertex(k, v)
	return UpdateSummary{}, err
}
