package workload

import (
	"bytes"
	"testing"
)

// toy shrinks a workload's graph so tests run in milliseconds.
func toy(s Spec) Spec {
	s.Graph.Vertices = 2000
	s.PrepInserts = 50
	return s
}

func edgeList(t *testing.T, g *Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.WriteEdgeList(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestInputsDeterministic(t *testing.T) {
	for _, spec := range Specs {
		t.Run(spec.Name, func(t *testing.T) {
			s := toy(spec)
			g1, g2, other := s.Graph.Build(1), s.Graph.Build(1), s.Graph.Build(2)
			if !bytes.Equal(edgeList(t, g1), edgeList(t, g2)) {
				t.Fatal("same seed, different edge lists")
			}
			if bytes.Equal(edgeList(t, g1), edgeList(t, other)) {
				t.Fatal("different seeds, same edge list")
			}
			u1, u2, uo := s.Updates(g1, 1), s.Updates(g2, 1), s.Updates(g1, 2)
			p1, p2, po := NewPairs(1, 0, 2000), NewPairs(1, 0, 2000), NewPairs(2, 0, 2000)
			sameOps, samePairs := true, true
			for i := 0; i < 200; i++ {
				a, b, c := u1.Next(), u2.Next(), uo.Next()
				if a != b {
					t.Fatalf("op %d: same seed gave %v and %v", i, a, b)
				}
				sameOps = sameOps && a == c
				x1, y1 := p1.Next()
				x2, y2 := p2.Next()
				xo, yo := po.Next()
				if x1 != x2 || y1 != y2 {
					t.Fatalf("pair %d differs under the same seed", i)
				}
				samePairs = samePairs && x1 == xo && y1 == yo
			}
			if sameOps || samePairs {
				t.Fatalf("different seeds gave the same streams (ops %v, pairs %v)", sameOps, samePairs)
			}
		})
	}
}

// TestUpdatesValid replays every stream on an independent copy of its
// graph: each insert must be a non-edge and each delete an edge at its
// position, and churn must keep |E| level.
func TestUpdatesValid(t *testing.T) {
	for _, spec := range Specs {
		t.Run(spec.Name, func(t *testing.T) {
			s := toy(spec)
			g := s.Graph.Build(3)
			replay := g.Clone()
			if s.PrepInserts > 0 {
				prep, after := s.Prep(g, 3)
				for _, op := range prep {
					if err := replay.Apply(op); err != nil {
						t.Fatalf("prep %v: %v", op, err)
					}
				}
				if replay.NumEdges() != after.NumEdges() || replay.NumEdges() != g.NumEdges()+s.PrepInserts {
					t.Fatalf("prep: %d edges, stream graph %d, want %d", replay.NumEdges(), after.NumEdges(), g.NumEdges()+s.PrepInserts)
				}
				g = after
			}
			ups := s.Updates(g, 3)
			deletes := 0
			for i := 0; i < 1000; i++ {
				op := ups.Next()
				if op.Kind == DeleteEdge {
					deletes++
				}
				if s.Weighted() && op.Kind == InsertEdge && (op.W < 1 || op.W > uint32(s.Graph.MaxW)) {
					t.Fatalf("op %d: weight %d outside 1..%d", i, op.W, s.Graph.MaxW)
				}
				if err := replay.Apply(op); err != nil {
					t.Fatalf("op %d %v: %v", i, op, err)
				}
			}
			if s.Churn && (deletes != 500 || replay.NumEdges() != g.NumEdges()) {
				t.Fatalf("churn: %d deletes, %d edges, want 500 and %d", deletes, replay.NumEdges(), g.NumEdges())
			}
			if !s.Churn && deletes != 0 {
				t.Fatalf("%d deletes in an insert-only stream", deletes)
			}
		})
	}
}

// plainDist is a textbook single-source search, the reference for the
// bidirectional Searcher.
func plainDist(g *Graph, u, v uint32) uint32 {
	dist := make([]uint32, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	dist[u] = 0
	done := make([]bool, g.NumVertices())
	for {
		x, best := -1, uint32(Inf)
		for i, d := range dist {
			if !done[i] && d < best {
				x, best = i, d
			}
		}
		if x < 0 {
			return dist[v]
		}
		done[x] = true
		for i, y := range g.adj[x] {
			w := uint32(1)
			if g.wts != nil {
				w = g.wts[x][i]
			}
			if best+w < dist[y] {
				dist[y] = best + w
			}
		}
	}
}

func TestSearcherMatchesReference(t *testing.T) {
	for _, spec := range Specs {
		t.Run(spec.Name, func(t *testing.T) {
			s := toy(spec)
			s.Graph.Vertices = 300
			g := s.Graph.Build(4)
			// Deletes can disconnect vertices; the searcher must say Inf.
			ups := NewUpdates(g, 4, StreamOps, s.Graph.MaxW, true)
			for i := 0; i < 400; i++ {
				if err := g.Apply(ups.Next()); err != nil {
					t.Fatal(err)
				}
			}
			sr := NewSearcher(g)
			pairs := NewPairs(4, 0, g.NumVertices())
			for i := 0; i < 300; i++ {
				u, v := pairs.Next()
				if got, want := sr.Dist(u, v), plainDist(g, u, v); got != want {
					t.Fatalf("d(%d,%d) = %d, want %d", u, v, got, want)
				}
			}
		})
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	g := BarabasiAlbert(1000, 8, NewRand(1, StreamGraph))
	want := 0
	for v := 1; v < 1000; v++ {
		want += min(8, v)
	}
	if g.NumEdges() != want {
		t.Fatalf("%d edges, want %d", g.NumEdges(), want)
	}
}
