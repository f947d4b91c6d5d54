package dynhl

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

func TestDirectedAPIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewDigraph(40)
	for i := 0; i < 40; i++ {
		g.AddVertex()
	}
	for i := 0; i < 120; i++ {
		u := uint32(rng.Intn(40))
		v := uint32(rng.Intn(40))
		if u != v {
			_, _ = g.AddEdge(u, v)
		}
	}
	idx, err := BuildDirected(g, Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(idx.Landmarks()); got != 4 {
		t.Fatalf("landmarks: %d", got)
	}
	// Insert a directed edge and check asymmetry plus verification.
	var a, b uint32
	for {
		a, b = uint32(rng.Intn(40)), uint32(rng.Intn(40))
		if a != b && !g.HasEdge(a, b) {
			break
		}
	}
	if _, err := idx.InsertEdge(a, b, 0); err != nil {
		t.Fatal(err)
	}
	if got := idx.Query(a, b); got != 1 {
		t.Errorf("Query(a,b) after insert: got %d, want 1", got)
	}
	if _, err := idx.InsertEdge(a, b, 3); err == nil {
		t.Error("weighted edge into directed oracle must fail")
	}
	if err := idx.Verify(); err != nil {
		t.Fatal(err)
	}
	if st := idx.Stats(); st.LabelEntries <= 0 || st.Vertices != 40 || st.Landmarks != 4 {
		t.Errorf("stats: %+v", st)
	}
	if _, err := BuildDirected(NewDigraph(0), Options{Landmarks: 3}); err == nil {
		t.Error("empty digraph must fail")
	}
}

func TestDirectedVertexInsertAPI(t *testing.T) {
	g := NewDigraph(0)
	for i := 0; i < 10; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 9; i++ {
		g.MustAddEdge(i, i+1)
	}
	idx, err := BuildDirected(g, Options{Landmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := idx.InsertVertex([]Arc{{To: 0}, {To: 9, In: true}})
	if err != nil {
		t.Fatal(err)
	}
	// 9 → v → 0: distance 9→0 becomes 2.
	if got := idx.Query(9, 0); got != 2 {
		t.Errorf("Query(9,0): got %d, want 2 via new vertex %d", got, v)
	}
	if err := idx.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteEdgeAcrossVariants drives the same delete → Inf → reinsert
// story through every variant behind the Oracle interface: cutting the only
// bridge on a path graph disconnects it (queries answer Inf), reinserting
// restores the exact original distances.
func TestDeleteEdgeAcrossVariants(t *testing.T) {
	build := map[string]func(t *testing.T) Oracle{
		"undirected": func(t *testing.T) Oracle {
			g := NewGraph(10)
			for i := 0; i < 10; i++ {
				g.AddVertex()
			}
			for i := uint32(0); i < 9; i++ {
				g.MustAddEdge(i, i+1)
			}
			idx, err := Build(g, Options{Landmarks: 2})
			if err != nil {
				t.Fatal(err)
			}
			return idx
		},
		"directed": func(t *testing.T) Oracle {
			g := NewDigraph(10)
			for i := 0; i < 10; i++ {
				g.AddVertex()
			}
			for i := uint32(0); i < 9; i++ {
				g.MustAddEdge(i, i+1)
			}
			idx, err := BuildDirected(g, Options{Landmarks: 2})
			if err != nil {
				t.Fatal(err)
			}
			return idx
		},
		"weighted": func(t *testing.T) Oracle {
			g := NewWeightedGraph(10)
			for i := 0; i < 10; i++ {
				g.AddVertex()
			}
			for i := uint32(0); i < 9; i++ {
				g.MustAddEdge(i, i+1, 1)
			}
			idx, err := BuildWeighted(g, Options{Landmarks: 2})
			if err != nil {
				t.Fatal(err)
			}
			return idx
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			o := mk(t)
			if got := o.Query(0, 9); got != 9 {
				t.Fatalf("d(0,9) before: got %d, want 9", got)
			}
			st, err := o.DeleteEdge(4, 5)
			if err != nil {
				t.Fatalf("DeleteEdge: %v", err)
			}
			if st.Affected == 0 {
				t.Error("bridge deletion must repair labels somewhere")
			}
			if got := o.Query(0, 9); got != Inf {
				t.Fatalf("d(0,9) after bridge cut: got %d, want Inf", got)
			}
			if err := o.Verify(); err != nil {
				t.Fatalf("Verify after disconnect: %v", err)
			}
			// Typed sentinels across all variants.
			if _, err := o.DeleteEdge(4, 5); !errors.Is(err, ErrNoSuchEdge) {
				t.Errorf("double delete: got %v, want ErrNoSuchEdge", err)
			}
			if _, err := o.DeleteEdge(0, 99); !errors.Is(err, ErrNoSuchVertex) {
				t.Errorf("unknown vertex: got %v, want ErrNoSuchVertex", err)
			}
			if _, err := o.InsertEdge(3, 4, 0); !errors.Is(err, ErrEdgeExists) {
				t.Errorf("duplicate insert: got %v, want ErrEdgeExists", err)
			}
			// Reinsert heals the cut exactly.
			if _, err := o.InsertEdge(4, 5, 0); err != nil {
				t.Fatalf("reinsert: %v", err)
			}
			if got := o.Query(0, 9); got != 9 {
				t.Fatalf("d(0,9) after reinsert: got %d, want 9", got)
			}
			if err := o.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDirectedMixedStreamMatchesBFS hammers the directed oracle with an
// interleaved insert/delete stream, checking every step against the
// directed BFS oracle.
func TestDirectedMixedStreamMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := NewDigraph(35)
	for i := 0; i < 35; i++ {
		g.AddVertex()
	}
	for i := 0; i < 120; i++ {
		u, v := uint32(rng.Intn(35)), uint32(rng.Intn(35))
		if u != v {
			g.MustAddEdge(u, v)
		}
	}
	idx, err := BuildDirected(g, Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 120; step++ {
		u, v := uint32(rng.Intn(35)), uint32(rng.Intn(35))
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			if _, err := idx.DeleteEdge(u, v); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
		} else {
			if _, err := idx.InsertEdge(u, v, 0); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
		}
		a, b := uint32(rng.Intn(35)), uint32(rng.Intn(35))
		if got, want := idx.Query(a, b), g.Dist(a, b); got != want {
			t.Fatalf("step %d: Query(%d,%d)=%d want %d", step, a, b, got, want)
		}
	}
	if err := idx.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedMixedStreamMatchesDijkstra mirrors the directed stream test
// for the weighted oracle against the Dijkstra oracle.
func TestWeightedMixedStreamMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	g := NewWeightedGraph(30)
	for i := 0; i < 30; i++ {
		g.AddVertex()
	}
	for i := 0; i < 90; i++ {
		u, v := uint32(rng.Intn(30)), uint32(rng.Intn(30))
		if u != v {
			g.MustAddEdge(u, v, Dist(1+rng.Intn(8)))
		}
	}
	idx, err := BuildWeighted(g, Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 100; step++ {
		u, v := uint32(rng.Intn(30)), uint32(rng.Intn(30))
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			if _, err := idx.DeleteEdge(u, v); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
		} else {
			if _, err := idx.InsertEdge(u, v, Dist(1+rng.Intn(8))); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
		}
		a, b := uint32(rng.Intn(30)), uint32(rng.Intn(30))
		if got, want := idx.Query(a, b), g.Dist(a, b); got != want {
			t.Fatalf("step %d: Query(%d,%d)=%d want %d", step, a, b, got, want)
		}
	}
	if err := idx.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteVertexAcrossVariants isolates a vertex through the Oracle
// interface on each variant and checks it answers Inf afterwards.
func TestDeleteVertexAcrossVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	build := map[string]func(t *testing.T) Oracle{
		"undirected": func(t *testing.T) Oracle {
			idx, err := Build(testutil.RandomConnectedGraph(30, 70, 12), Options{Landmarks: 3})
			if err != nil {
				t.Fatal(err)
			}
			return idx
		},
		"directed": func(t *testing.T) Oracle {
			g := NewDigraph(30)
			for i := 0; i < 30; i++ {
				g.AddVertex()
			}
			for i := 0; i < 110; i++ {
				u, v := uint32(rng.Intn(30)), uint32(rng.Intn(30))
				if u != v {
					g.MustAddEdge(u, v)
				}
			}
			idx, err := BuildDirected(g, Options{Landmarks: 3})
			if err != nil {
				t.Fatal(err)
			}
			return idx
		},
		"weighted": func(t *testing.T) Oracle {
			g := NewWeightedGraph(30)
			for i := 0; i < 30; i++ {
				g.AddVertex()
			}
			for i := 0; i < 110; i++ {
				u, v := uint32(rng.Intn(30)), uint32(rng.Intn(30))
				if u != v {
					g.MustAddEdge(u, v, Dist(1+rng.Intn(5)))
				}
			}
			idx, err := BuildWeighted(g, Options{Landmarks: 3})
			if err != nil {
				t.Fatal(err)
			}
			return idx
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			o := mk(t)
			// Find a non-landmark vertex (landmark deletion is rejected, which
			// we also pin).
			type landmarker interface{ Landmarks() []uint32 }
			lms := map[uint32]bool{}
			for _, l := range o.(landmarker).Landmarks() {
				lms[l] = true
			}
			var v uint32
			for v = 0; lms[v]; v++ {
			}
			if _, err := o.DeleteVertex(v); err != nil {
				t.Fatalf("DeleteVertex(%d): %v", v, err)
			}
			for i := 0; i < 5; i++ {
				w := uint32(rng.Intn(30))
				if w == v {
					continue
				}
				if got := o.Query(v, w); got != Inf {
					t.Fatalf("isolated vertex: d(%d,%d)=%d, want Inf", v, w, got)
				}
			}
			if err := o.Verify(); err != nil {
				t.Fatal(err)
			}
			lm := o.(landmarker).Landmarks()[0]
			if _, err := o.DeleteVertex(lm); err == nil {
				t.Error("deleting a landmark must fail")
			}
		})
	}
}

func TestWeightedAPIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewWeightedGraph(30)
	for i := 0; i < 30; i++ {
		g.AddVertex()
	}
	for i := 0; i < 70; i++ {
		u := uint32(rng.Intn(30))
		v := uint32(rng.Intn(30))
		if u != v {
			_, _ = g.AddEdge(u, v, Dist(1+rng.Intn(9)))
		}
	}
	idx, err := BuildWeighted(g, Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Verify(); err != nil {
		t.Fatal(err)
	}
	// A direct cheap edge must win over any previous route.
	var a, b uint32
	for {
		a, b = uint32(rng.Intn(30)), uint32(rng.Intn(30))
		if a != b && !g.HasEdge(a, b) {
			break
		}
	}
	if _, err := idx.InsertEdge(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if got := idx.Query(a, b); got != 1 {
		t.Errorf("Query after weight-1 insert: got %d, want 1", got)
	}
	if err := idx.Verify(); err != nil {
		t.Fatal(err)
	}

	v, _, err := idx.InsertVertex([]Arc{{To: a, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Query(v, b); got != 4 {
		t.Errorf("Query(new,b): got %d, want 4 (3 + the fresh unit edge)", got)
	}
	if _, err := BuildWeighted(NewWeightedGraph(0), Options{Landmarks: 2}); err == nil {
		t.Error("empty graph must fail")
	}
}

// TestWeightedStoreDisconnectionMatchesDijkstra drives a weighted Store
// through a mixed insert/delete stream that cuts and restores the bridges
// between four clusters, so that landmarks often reach only part of the
// graph and whole components reach no landmark at all. All four landmarks
// sit in the first two clusters. After every op, every pair answered by the
// published View must equal Dijkstra on a reference graph, Inf included.
// This is where the queries' landmark lower bounds meet landmarks that do
// not reach one side of a pair.
func TestWeightedStoreDisconnectionMatchesDijkstra(t *testing.T) {
	const clusters, size = 4, 9
	const n = clusters * size
	rng := rand.New(rand.NewSource(26))
	g, ref := NewWeightedGraph(n), NewWeightedGraph(n)
	for i := 0; i < n; i++ {
		g.AddVertex()
		ref.AddVertex()
	}
	add := func(u, v uint32, w Dist) {
		g.MustAddEdge(u, v, w)
		ref.MustAddEdge(u, v, w)
	}
	for c := uint32(0); c < clusters; c++ {
		for i := uint32(0); i < size; i++ {
			add(c*size+i, c*size+(i+1)%size, Dist(1+rng.Intn(8)))
		}
	}
	bridges := [][2]uint32{{0, size + 4}, {size, 2*size + 4}, {2 * size, 3*size + 4}}
	for _, b := range bridges {
		add(b[0], b[1], Dist(1+rng.Intn(8)))
	}
	landmarks := []uint32{1, 5, size + 1, size + 5}
	idx, err := BuildWeightedWithLandmarks(g, landmarks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(idx)

	reaches := make([][]Dist, len(landmarks))
	for i := range reaches {
		reaches[i] = make([]Dist, n)
	}
	dist := make([]Dist, n)
	var cut, partial, unlabelled, infs int
	for step := 0; step < 150; step++ {
		var op Op
		switch r := rng.Intn(10); {
		case r < 4: // toggle a bridge
			b := bridges[rng.Intn(len(bridges))]
			if ref.HasEdge(b[0], b[1]) {
				op = DeleteEdgeOp(b[0], b[1])
			} else {
				op = InsertEdgeOp(b[0], b[1], Dist(1+rng.Intn(8)))
			}
		case r < 7: // delete an edge inside a cluster
			u := uint32(rng.Intn(n))
			nb := ref.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			op = DeleteEdgeOp(u, nb[rng.Intn(len(nb))].To)
		default: // insert an edge inside a cluster
			c := uint32(rng.Intn(clusters)) * size
			u, v := c+uint32(rng.Intn(size)), c+uint32(rng.Intn(size))
			if u == v || ref.HasEdge(u, v) {
				continue
			}
			op = InsertEdgeOp(u, v, Dist(1+rng.Intn(8)))
		}
		if _, err := s.Apply([]Op{op}); err != nil {
			t.Fatalf("step %d: %v: %v", step, op, err)
		}
		if op.Kind == OpDeleteEdge {
			if _, err := ref.RemoveEdge(op.U, op.V); err != nil {
				t.Fatal(err)
			}
		} else {
			ref.MustAddEdge(op.U, op.V, op.W)
		}
		for i, r := range landmarks {
			ref.Dijkstra(r, reaches[i])
		}
		view := s.Snapshot()
		for a := uint32(0); a < n; a++ {
			ref.Dijkstra(a, dist)
			reached := 0
			for i := range landmarks {
				if reaches[i][a] != Inf {
					reached++
				}
			}
			for b := uint32(0); b < n; b++ {
				if got := view.Query(a, b); got != dist[b] {
					t.Fatalf("step %d after %v: Query(%d,%d) = %d, Dijkstra %d", step, op, a, b, got, dist[b])
				}
				switch {
				case dist[b] == Inf:
					infs++
				case a != b && reached == 0:
					unlabelled++
				case a != b && reached < len(landmarks):
					partial++
				}
			}
			if reached > 0 && reached < len(landmarks) {
				cut++
			}
		}
	}
	// The stream must have exercised what it is for.
	if cut == 0 || partial == 0 || unlabelled == 0 || infs == 0 {
		t.Fatalf("stream too tame: %d vertices reached by some landmarks only, %d pairs connected there, %d connected pairs no landmark reaches, %d Inf pairs",
			cut, partial, unlabelled, infs)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
