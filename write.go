package dynhl

import (
	"fmt"

	"repro/internal/hcl"
)

// This file is the one write path of the oracle and of its validity
// pre-pass (check.go). Each of them is a writer, four edge-level
// edits, and the ops are written once over it: an edge op is one edit
// under the variant's arc rule, and a vertex op is the paper's
// decomposition of it, a new vertex plus a sequence of edge insertions,
// or the deletion of every edge at the vertex.

// writer is the edge-level write surface the ops are written over. The
// oracle implements it by repairing its labelling on each edit, the
// pre-pass by checking the edit and recording it. On the directed variant
// an edge is an arc, u→v; w is a weight as the arc rule reads it.
type writer interface {
	insertEdge(u, v uint32, w Dist) (hcl.Stats, error)
	deleteEdge(u, v uint32) (hcl.Stats, error)
	addVertex() uint32
	// incident lists the edges at v, out-arcs before in-arcs.
	incident(v uint32) [][2]uint32
}

// arcRule is how a variant reads the weight and direction an op gives an
// edge. An unweighted variant takes only weights 0 and 1; a weighted one
// keeps them. Either way 0 means 1. Only the directed variant takes
// Arc.In.
type arcRule struct {
	name     string // the variant, for errors
	weighted bool
	directed bool
}

var (
	undirectedArcs = arcRule{name: "undirected"}
	directedArcs   = arcRule{name: "directed", directed: true}
	weightedArcs   = arcRule{name: "weighted", weighted: true}
)

// weight reads an inserted edge's weight.
func (r arcRule) weight(w Dist) (Dist, error) {
	if !r.weighted && w > 1 {
		return 0, fmt.Errorf("dynhl: %s oracle is unweighted, got edge weight %d", r.name, w)
	}
	return max(w, 1), nil
}

// arcs reads a new vertex's arcs: their weights as weight does, out-arcs
// before in-arcs, the order they are checked and inserted in.
func (r arcRule) arcs(arcs []Arc) ([]Arc, error) {
	out := make([]Arc, 0, len(arcs))
	var in []Arc
	for _, a := range arcs {
		if !r.weighted && a.W > 1 {
			return nil, fmt.Errorf("dynhl: %s oracle is unweighted, got arc weight %d", r.name, a.W)
		}
		if a.In && !r.directed {
			return nil, fmt.Errorf("dynhl: %s oracle has no incoming arcs", r.name)
		}
		a.W = max(a.W, 1)
		if a.In {
			in = append(in, a)
		} else {
			out = append(out, a)
		}
	}
	return append(out, in...), nil
}

// insertEdge is InsertEdge on w under rule.
func insertEdge(w writer, rule arcRule, u, v uint32, weight Dist) (UpdateSummary, error) {
	weight, err := rule.weight(weight)
	if err != nil {
		return UpdateSummary{}, err
	}
	return summary(w.insertEdge(u, v, weight))
}

// insertVertex adds a vertex to w and one edge per arc, read by
// arcRule.arcs, and aggregates the insertions' statistics.
func insertVertex(w writer, arcs []Arc) (uint32, hcl.Stats, error) {
	id := w.addVertex()
	var agg hcl.Stats
	for _, a := range arcs {
		u, v := id, a.To
		if a.In {
			u, v = v, u
		}
		st, err := w.insertEdge(u, v, a.W)
		if err != nil {
			return 0, agg, err
		}
		agg.Plus(st)
	}
	return id, agg, nil
}

// deleteVertex deletes every edge at v from w and aggregates the
// deletions' statistics.
func deleteVertex(w writer, v uint32) (hcl.Stats, error) {
	var agg hcl.Stats
	for _, e := range w.incident(v) {
		st, err := w.deleteEdge(e[0], e[1])
		if err != nil {
			return agg, err
		}
		agg.Plus(st)
	}
	return agg, nil
}

// validated is an oracle whose ops a pre-pass has accepted already, as a
// Store group's are by the committer: its vertex ops go straight to the
// edge repairs.
type validated struct{ *oracle }

func (x validated) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	arcs, err := x.rule.arcs(arcs)
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	id, st, err := insertVertex(x, arcs)
	st.LandmarksTotal = x.core.NumLandmarks()
	sum, err := summary(st, err)
	return id, sum, err
}

func (x validated) DeleteVertex(v uint32) (UpdateSummary, error) {
	st, err := deleteVertex(x, v)
	st.LandmarksTotal = x.core.NumLandmarks()
	return summary(st, err)
}

// edgesAt lists the edges at v: to each of out, then from each of in.
func edgesAt(v uint32, out, in []uint32) [][2]uint32 {
	es := make([][2]uint32, 0, len(out)+len(in))
	for _, w := range out {
		es = append(es, [2]uint32{v, w})
	}
	for _, w := range in {
		es = append(es, [2]uint32{w, v})
	}
	return es
}
