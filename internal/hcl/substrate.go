package hcl

import (
	"repro/internal/bfs"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/wgraph"
)

// The substrates: what each graph type supplies to the labelling over it.
// Everything else — construction, the codec, the fork, the highway bound,
// the edge updates with their Lemma 4.3 tests, kernels and statistics — is
// written once, on Core and Labelled. The graph packages cannot hold these
// methods themselves (graph sits below bfs), so they live here.

// The labelling shapes of the three substrates. Their magics name the
// label streams (see codec.go).
var (
	undirected = Kind{Magic: codecMagic, Dirs: 1}
	directed   = Kind{Magic: "DHL2", Dirs: 2}
	weighted   = Kind{Magic: "WHL2", Dirs: 1}
)

// fwd is the forward label direction of a directed labelling, whose
// labels hold (r, d(r→v)); direction 1, the backward one, holds
// (r, d(v→r)). A forward pass of r writes highway cells (r,s), a backward
// one cells (s,r).
const fwd = 0

// substrate is one graph's share of a Labelled over it.
type substrate interface {
	// kind is the labelling shape.
	kind() Kind
	// construct runs the covered-flag search of the pass d over the
	// current graph and buffers the replacement of its entries and highway
	// cells into d: a construction pass, or a RepairRebuild repair.
	construct(c *Core, ws *Scratch, d *Delta)
	// search is the bounded bidirectional search of a query u→v over the
	// landmark-sparsified graph: the distance if below top, else Inf. The
	// caller has removed every landmark from the searched graph with
	// s.Block.
	search(c *Core, u, v uint32, top graph.Dist, s *bfs.QuerySpace) graph.Dist
	// distances fills dist with the distances from the landmark src over
	// the arcs of label direction dir: the cover audit's ground truth.
	distances(dir int, src uint32, dist []graph.Dist)
	// insert and remove are the edge updates (update.go) with the graph's
	// edit, edge length and adjacency.
	insert(c *Core, a, b uint32, w graph.Dist, rebuild func(*Scratch, *Delta)) (Stats, error)
	remove(c *Core, a, b uint32) (Stats, error)
}

// substrateOf returns g's substrate. It holds only g, so it is an
// interface value without an allocation.
func substrateOf[G Substrate[G]](g G) substrate {
	switch g := any(g).(type) {
	case *graph.Graph:
		return graphSub{g}
	case *digraph.Digraph:
		return digraphSub{g}
	case *wgraph.Graph:
		return wgraphSub{g}
	}
	panic("hcl: unknown substrate") // Substrate's type set is the three above
}

// graphSub is an undirected graph: its one direction's passes walk the
// neighbours, and a query runs bfs's bounded bidirectional BFS.
type graphSub struct{ g *graph.Graph }

func (graphSub) kind() Kind { return undirected }

func (s graphSub) construct(c *Core, ws *Scratch, d *Delta) {
	c.RebuildBFS(ws, d, s.g.Neighbors, s.g.Neighbors)
}

func (s graphSub) search(c *Core, u, v uint32, top graph.Dist, qs *bfs.QuerySpace) graph.Dist {
	return bfs.Sparsified(s.g, u, v, top, nil, qs)
}

func (s graphSub) distances(_ int, src uint32, dist []graph.Dist) { bfs.All(s.g, src, dist) }

func (s graphSub) insert(c *Core, a, b uint32, _ graph.Dist, rebuild func(*Scratch, *Delta)) (Stats, error) {
	return insertEdge(c, s.g, a, b, 1, func() error {
		_, err := s.g.AddEdge(a, b)
		return err
	}, undirectedArcs(s.g.Neighbors), rebuild)
}

func (s graphSub) remove(c *Core, a, b uint32) (Stats, error) {
	return deleteEdge(c, s.g, a, b, 1, func() error { return s.g.RemoveEdge(a, b) }, undirectedArcs(s.g.Neighbors))
}

// digraphSub is a directed graph: forward passes walk out-arcs with in-arcs
// as parents, backward passes the reverse, and a query runs digraph's
// bounded bidirectional BFS, forward from u and backward from v.
type digraphSub struct{ g *digraph.Digraph }

func (digraphSub) kind() Kind { return directed }

func (s digraphSub) construct(c *Core, ws *Scratch, d *Delta) {
	if d.Dir == fwd {
		c.RebuildBFS(ws, d, s.g.Out, s.g.In)
	} else {
		c.RebuildBFS(ws, d, s.g.In, s.g.Out)
	}
}

func (s digraphSub) search(c *Core, u, v uint32, top graph.Dist, qs *bfs.QuerySpace) graph.Dist {
	return s.g.Sparsified(u, v, top, nil, qs)
}

func (s digraphSub) distances(dir int, src uint32, dist []graph.Dist) {
	if dir == fwd {
		s.g.Forward(src, dist)
	} else {
		s.g.Backward(src, dist)
	}
}

func (s digraphSub) insert(c *Core, a, b uint32, _ graph.Dist, rebuild func(*Scratch, *Delta)) (Stats, error) {
	return insertEdge(c, s.g, a, b, 1, func() error {
		_, err := s.g.AddEdge(a, b)
		return err
	}, directedArcs(s.g.Out, s.g.In), rebuild)
}

func (s digraphSub) remove(c *Core, a, b uint32) (Stats, error) {
	return deleteEdge(c, s.g, a, b, 1, func() error { return s.g.RemoveEdge(a, b) }, directedArcs(s.g.Out, s.g.In))
}

// wgraphSub is a weighted graph: Dijkstra replaces BFS throughout, an
// edge's length is its weight, and a query runs wgraph's bounded
// bidirectional Dijkstra. It asks the landmark lower bound (ALT) to the
// opposite endpoint of each vertex it pops, and does not expand one whose
// bound shows that no path through it beats the best found — a bound each
// entry of the vertex's label gives against a per-query table in the
// scratch, without another index.
type wgraphSub struct{ g *wgraph.Graph }

func (wgraphSub) kind() Kind { return weighted }

func (s wgraphSub) construct(c *Core, ws *Scratch, d *Delta) { c.RebuildDijkstra(ws, d, s.g.Neighbors) }

func (s wgraphSub) search(c *Core, u, v uint32, top graph.Dist, qs *bfs.QuerySpace) graph.Dist {
	alt := c.ALT(u, v, qs)
	return s.g.SparsifiedLB(u, v, top, nil, alt.Lower, qs)
}

func (s wgraphSub) distances(_ int, src uint32, dist []graph.Dist) { s.g.Dijkstra(src, dist) }

func (s wgraphSub) insert(c *Core, a, b uint32, w graph.Dist, rebuild func(*Scratch, *Delta)) (Stats, error) {
	return insertEdge(c, s.g, a, b, w, func() error {
		_, err := s.g.AddEdge(a, b, w)
		return err
	}, undirectedArcs(s.g.Neighbors), rebuild)
}

func (s wgraphSub) remove(c *Core, a, b uint32) (Stats, error) {
	return deleteEdge(c, s.g, a, b, s.g.Weight(a, b), func() error {
		_, err := s.g.RemoveEdge(a, b)
		return err
	}, undirectedArcs(s.g.Neighbors))
}
