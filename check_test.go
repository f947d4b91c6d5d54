package dynhl

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCheckMatchesRepair is the validity pre-pass's differential test: for
// every variant, random groups of callers — valid and invalid ops mixed,
// later ops and callers depending on earlier ones — run through the
// pipeline's pre-pass (a fork of the checker per caller, on top of the
// callers it accepted) and through the real, repairing methods on a fork of
// the index per caller. Each caller must be accepted by both or rejected by
// both with byte-identical OpError text.
func TestCheckMatchesRepair(t *testing.T) {
	const vertices = 24
	rng := rand.New(rand.NewSource(19))
	undirected := NewGraph(vertices)
	directed := NewDigraph(vertices)
	weighted := NewWeightedGraph(vertices)
	for i := 0; i < vertices; i++ {
		undirected.AddVertex()
		directed.AddVertex()
		weighted.AddVertex()
	}
	for v := uint32(1); v < vertices; v++ {
		for range 4 {
			u := uint32(rng.Intn(int(v)))
			undirected.AddEdge(u, v)
			directed.AddEdge(u, v)
			directed.AddEdge(v, u)
			weighted.AddEdge(u, v, Dist(1+rng.Intn(4)))
		}
	}
	opts := Options{Landmarks: 3, Seed: 19}
	x, err := Build(undirected, opts)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := BuildDirected(directed, opts)
	if err != nil {
		t.Fatal(err)
	}
	wx, err := BuildWeighted(weighted, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []variant{x, dx, wx} {
		t.Run(variantOf(v), func(t *testing.T) {
			cur := v
			gen := &opGen{rng: rng, into: func(v uint32) []uint32 {
				if int(v) >= cur.NumVertices() {
					return nil
				}
				switch x := cur.(type) {
				case *Index:
					return x.Graph().Neighbors(v)
				case *DirectedIndex:
					return x.Graph().In(v)
				}
				var ns []uint32
				for _, a := range cur.(*WeightedIndex).Graph().Neighbors(v) {
					ns = append(ns, a.To)
				}
				return ns
			}}
			rejected, accepted := 0, 0
			for round := 0; round < 600; round++ {
				check := cur.checker()
				for c := 0; c < 1+rng.Intn(3); c++ {
					ops := gen.ops(cur.NumVertices(), 1+rng.Intn(4))
					try := check.fork()
					_, cerr := applyOps(try, ops)
					work := cur.fork()
					_, rerr := applyOps(work, ops)
					if fmt.Sprint(cerr) != fmt.Sprint(rerr) {
						t.Fatalf("round %d, ops %+v: pre-pass says %v, repair says %v", round, ops, cerr, rerr)
					}
					if rerr != nil {
						rejected++
						continue
					}
					accepted++
					check, cur = try, work
				}
			}
			if err := cur.Verify(); err != nil {
				t.Fatal(err)
			}
			if rejected < 100 || accepted < 100 {
				t.Fatalf("%d callers accepted, %d rejected: the mix does not exercise both", accepted, rejected)
			}
		})
	}
}

// opGen draws random ops over vertex ids up to n, about half of them
// invalid on a sparse graph: existing or missing edges, self-loops,
// unknown vertices, landmarks, weights and arc directions a variant
// rejects. Ops often reuse the endpoints of the previous op, as they are
// or swapped, or the vertex it added or deleted with an edge into it —
// across callers too — so later ops and callers depend on earlier ones,
// rejected ones included.
type opGen struct {
	rng  *rand.Rand
	n    int
	last [2]uint32
	into func(v uint32) []uint32 // v's neighbours, in-neighbours if directed
}

func (g *opGen) id() uint32 {
	if g.rng.Intn(3) == 0 {
		return g.last[g.rng.Intn(2)]
	}
	return uint32(g.rng.Intn(g.n + 1))
}

func (g *opGen) pair() (uint32, uint32) {
	switch g.rng.Intn(3) {
	case 0:
	case 1:
		g.last[0], g.last[1] = g.last[1], g.last[0]
	default:
		g.last = [2]uint32{g.id(), g.id()}
	}
	return g.last[0], g.last[1]
}

// ops returns a batch of k ops against a graph of n vertices.
func (g *opGen) ops(n, k int) []Op {
	g.n = n
	ops := make([]Op, k)
	for i := range ops {
		switch g.rng.Intn(7) {
		case 0, 1:
			u, v := g.pair()
			ops[i] = InsertEdgeOp(u, v, Dist(g.rng.Intn(3)))
		case 2, 3:
			u, v := g.pair()
			ops[i] = DeleteEdgeOp(u, v)
		case 4, 5:
			arcs := make([]Arc, g.rng.Intn(3))
			for j := range arcs {
				arcs[j] = Arc{To: g.id(), W: Dist(g.rng.Intn(2)), In: g.rng.Intn(4) == 0}
			}
			ops[i] = InsertVertexOp(arcs...)
			g.last[0] = uint32(g.n)
			g.n++
		default:
			v := g.id()
			ops[i] = DeleteVertexOp(v)
			g.last = [2]uint32{v, v}
			if ns := g.into(v); len(ns) > 0 {
				g.last[0] = ns[g.rng.Intn(len(ns))]
			}
		}
	}
	return ops
}
