package dynhl

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bfs"
	"repro/internal/testutil"
)

// TestConcurrentHammer races parallel Query/QueryBatch readers against an
// IncHL+ writer through a Store. Run it under -race. During
// the stream, readers check the one invariant insertions guarantee —
// distances never increase; afterwards the final state is audited against
// BFS ground truth.
func TestConcurrentHammer(t *testing.T) {
	const n = 150
	g := testutil.RandomConnectedGraph(n, 300, 21)
	inserts := testutil.NonEdges(g, 80, 5)
	idx, err := Build(g, Options{Landmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	co := NewStore(idx)

	readers := runtime.GOMAXPROCS(0)
	if readers < 4 {
		readers = 4
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Writer: the rare-update side of the workload — edge insertions plus a
	// few vertex insertions, each published as a new epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i, e := range inserts {
			if _, err := co.InsertEdge(e[0], e[1], 0); err != nil {
				errs <- err
				return
			}
			if i%20 == 19 {
				if _, _, err := co.InsertVertex(Arcs(e[0], e[1])); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	// Readers: single queries and batches over the original vertex set,
	// asserting distances are non-increasing under insertions.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			last := make(map[[2]uint32]Dist)
			check := func(u, v uint32, d Dist) bool {
				key := [2]uint32{u, v}
				if prev, ok := last[key]; ok && d > prev {
					errs <- fmt.Errorf("distance d(%d,%d) increased %d -> %d under insertions", u, v, prev, d)
					return false
				}
				last[key] = d
				return true
			}
			for !done.Load() {
				u := uint32(rng.Intn(n))
				v := uint32(rng.Intn(n))
				if !check(u, v, co.Query(u, v)) {
					return
				}
				pairs := make([]Pair, 64)
				for i := range pairs {
					pairs[i] = Pair{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
				}
				for i, d := range co.QueryBatch(pairs) {
					if !check(pairs[i].U, pairs[i].V, d) {
						return
					}
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Quiesced: audit the labelling and spot-check against BFS. The
	// original idx is frozen at epoch 0 — the published snapshot holds the
	// post-update state.
	if err := co.Verify(); err != nil {
		t.Fatal(err)
	}
	final := co.Unwrap().(*Index).Graph()
	rng := rand.New(rand.NewSource(77))
	pairs := make([]Pair, 200)
	for i := range pairs {
		pairs[i] = Pair{U: uint32(rng.Intn(final.NumVertices())), V: uint32(rng.Intn(final.NumVertices()))}
	}
	ds := co.QueryBatch(pairs)
	for i, p := range pairs {
		if want := bfs.Dist(final, p.U, p.V); ds[i] != want {
			t.Fatalf("QueryBatch pair (%d,%d): got %d, want %d", p.U, p.V, ds[i], want)
		}
	}
}

// TestConcurrentHammerFullyDynamic races parallel readers against a writer
// issuing a mixed insert/delete stream — the fully dynamic workload. With
// deletions in play distances move both ways, so readers only assert cheap
// invariants (d(u,u) = 0, and d(u,v) ≥ 1 for u ≠ v); the real check is the
// race detector during the stream plus the full BFS audit once quiesced,
// which also covers disconnections (Inf answers) the deletions caused.
func TestConcurrentHammerFullyDynamic(t *testing.T) {
	const n = 120
	g := testutil.RandomConnectedGraph(n, 260, 33)
	idx, err := Build(g, Options{Landmarks: 6})
	if err != nil {
		t.Fatal(err)
	}
	co := NewStore(idx)

	readers := runtime.GOMAXPROCS(0)
	if readers < 4 {
		readers = 4
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Writer: inserts and deletes interleaved, including delete-then-
	// reinsert round trips and deletions of long-standing (bridge-capable)
	// edges that can disconnect regions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(55))
		for step := 0; step < 150; step++ {
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			if u == v {
				continue
			}
			if co.Unwrap().(*Index).Graph().HasEdge(u, v) {
				if _, err := co.DeleteEdge(u, v); err != nil {
					errs <- err
					return
				}
				if step%3 == 0 { // reinsert a third of the deletions
					if _, err := co.InsertEdge(u, v, 0); err != nil {
						errs <- err
						return
					}
				}
			} else {
				if _, err := co.InsertEdge(u, v, 0); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				u := uint32(rng.Intn(n))
				if d := co.Query(u, u); d != 0 {
					errs <- fmt.Errorf("d(%d,%d) = %d, want 0", u, u, d)
					return
				}
				pairs := make([]Pair, 48)
				for i := range pairs {
					pairs[i] = Pair{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
				}
				for i, d := range co.QueryBatch(pairs) {
					if pairs[i].U != pairs[i].V && d == 0 {
						errs <- fmt.Errorf("d(%d,%d) = 0 for distinct vertices", pairs[i].U, pairs[i].V)
						return
					}
				}
			}
		}(int64(200 + r))
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := co.Verify(); err != nil {
		t.Fatal(err)
	}
	final := co.Unwrap().(*Index).Graph()
	rng := rand.New(rand.NewSource(88))
	for i := 0; i < 300; i++ {
		u := uint32(rng.Intn(final.NumVertices()))
		v := uint32(rng.Intn(final.NumVertices()))
		want := bfs.Dist(final, u, v) // Inf for pairs the deletions disconnected
		if got := co.Query(u, v); got != want {
			t.Fatalf("Query(%d,%d): got %d, want %d", u, v, got, want)
		}
	}
}

// TestConcurrentAllVariants drives the three variants through the same
// Oracle-typed harness, pinning that the Store works for each.
func TestConcurrentAllVariants(t *testing.T) {
	build := map[string]func(t *testing.T) Oracle{
		"undirected": func(t *testing.T) Oracle {
			idx, err := Build(testutil.RandomConnectedGraph(40, 80, 2), Options{Landmarks: 4})
			if err != nil {
				t.Fatal(err)
			}
			return idx
		},
		"directed": func(t *testing.T) Oracle {
			g := NewDigraph(40)
			for i := 0; i < 40; i++ {
				g.AddVertex()
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 120; i++ {
				u, v := uint32(rng.Intn(40)), uint32(rng.Intn(40))
				if u != v {
					g.MustAddEdge(u, v)
				}
			}
			idx, err := BuildDirected(g, Options{Landmarks: 4})
			if err != nil {
				t.Fatal(err)
			}
			return idx
		},
		"weighted": func(t *testing.T) Oracle {
			g := NewWeightedGraph(40)
			for i := 0; i < 40; i++ {
				g.AddVertex()
			}
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 120; i++ {
				u, v := uint32(rng.Intn(40)), uint32(rng.Intn(40))
				if u != v {
					g.MustAddEdge(u, v, Dist(1+rng.Intn(9)))
				}
			}
			idx, err := BuildWeighted(g, Options{Landmarks: 4})
			if err != nil {
				t.Fatal(err)
			}
			return idx
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			co := NewStore(mk(t))
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 200; i++ {
						co.Query(uint32(rng.Intn(40)), uint32(rng.Intn(40)))
					}
				}(int64(r))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(9))
				for i := 0; i < 20; i++ {
					u, v := uint32(rng.Intn(40)), uint32(rng.Intn(40))
					if u == v {
						continue
					}
					if i%2 == 0 {
						_, _ = co.InsertEdge(u, v, 0) // duplicates just error
					} else {
						_, _ = co.DeleteEdge(u, v) // missing edges just error
					}
				}
			}()
			wg.Wait()
			if err := co.Verify(); err != nil {
				t.Fatal(err)
			}
			// Batch answers must agree with single queries once quiet.
			pairs := []Pair{{U: 0, V: 1}, {U: 5, V: 30}, {U: 12, V: 12}}
			ds := co.QueryBatch(pairs)
			for i, p := range pairs {
				if got := co.Query(p.U, p.V); got != ds[i] {
					t.Fatalf("batch/single mismatch on %+v: %d vs %d", p, ds[i], got)
				}
			}
		})
	}
}

// TestConcurrentCapabilities pins the Store's Saver/Loader forwarding and
// idempotent wrapping.
func TestConcurrentCapabilities(t *testing.T) {
	idx, err := Build(testutil.RandomConnectedGraph(30, 60, 6), Options{Landmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	co := NewStore(idx)
	if NewStore(co) != co {
		t.Error("wrapping a Store must be a no-op")
	}
	var buf bytes.Buffer
	if err := co.Save(&buf); err != nil {
		t.Fatalf("Save through the store: %v", err)
	}
	if err := co.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Load through the store: %v", err)
	}
	if err := co.Verify(); err != nil {
		t.Fatal(err)
	}

	g := NewDigraph(0)
	for i := 0; i < 5; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 4; i++ {
		g.MustAddEdge(i, i+1)
	}
	dir, err := BuildDirected(g, Options{Landmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	var dbuf bytes.Buffer
	if err := NewStore(dir).Save(&dbuf); err != nil {
		t.Errorf("directed Save through the store: %v", err)
	}
	if dbuf.Len() == 0 {
		t.Error("directed Save wrote nothing")
	}
}
