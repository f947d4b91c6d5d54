package dynhl

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// This file pins the public contract of the parallel repair engine: for
// every variant, any Options.RepairWorkers value produces an oracle whose
// serialised form is byte-identical to the serial one — parallelism is a
// throughput knob, never a semantic one.

// saveUndirected builds an undirected oracle at the given fan-out, drives
// a fixed insert/delete stream through it, and returns its Save bytes.
func saveUndirected(t *testing.T, workers int) []byte {
	t.Helper()
	g := testutil.RandomConnectedGraph(60, 100, 8)
	edges := testutil.NonEdges(g, 15, 31)
	x, err := Build(g, Options{Landmarks: 4, Parallel: workers != 1, RepairWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range edges {
		if _, err := x.InsertEdge(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := x.DeleteEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// saveDirected is saveUndirected for the directed variant.
func saveDirected(t *testing.T, workers int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(14))
	g := NewDigraph(50)
	for i := 0; i < 50; i++ {
		g.AddVertex()
	}
	for i := 0; i < 170; i++ {
		u, v := uint32(rng.Intn(50)), uint32(rng.Intn(50))
		if u != v {
			_, _ = g.AddEdge(u, v)
		}
	}
	x, err := BuildDirected(g, Options{Landmarks: 4, Parallel: workers != 1, RepairWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; {
		u, v := uint32(rng.Intn(50)), uint32(rng.Intn(50))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if _, err := x.InsertEdge(u, v, 0); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := x.DeleteEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		i++
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// saveWeighted is saveUndirected for the weighted variant.
func saveWeighted(t *testing.T, workers int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	g := NewWeightedGraph(50)
	for i := 0; i < 50; i++ {
		g.AddVertex()
	}
	for i := 0; i < 170; i++ {
		u, v := uint32(rng.Intn(50)), uint32(rng.Intn(50))
		if u != v {
			_, _ = g.AddEdge(u, v, Dist(1+rng.Intn(7)))
		}
	}
	x, err := BuildWeighted(g, Options{Landmarks: 4, Parallel: workers != 1, RepairWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; {
		u, v := uint32(rng.Intn(50)), uint32(rng.Intn(50))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if _, err := x.InsertEdge(u, v, Dist(1+rng.Intn(7))); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := x.DeleteEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		i++
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRepairWorkersSaveBytesIdentical runs the same build + update stream
// at serial, fixed-parallel and GOMAXPROCS fan-outs and requires the
// serialised oracle to be byte-for-byte identical across all of them,
// for all three variants.
func TestRepairWorkersSaveBytesIdentical(t *testing.T) {
	variants := []struct {
		name string
		save func(*testing.T, int) []byte
	}{
		{"undirected", saveUndirected},
		{"directed", saveDirected},
		{"weighted", saveWeighted},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			want := v.save(t, 1)
			for _, w := range []int{2, 0} {
				if got := v.save(t, w); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: Save bytes differ from serial (%d vs %d bytes)",
						w, len(got), len(want))
				}
			}
		})
	}
}

// TestStoreRepairWorkersDeterminism drives the same op batches through a
// serial store and a maximally parallel store and requires identical
// epochs, packed sizes and query answers — the store-level view of the
// byte-identity contract, including the parallel delta repack.
func TestStoreRepairWorkersDeterminism(t *testing.T) {
	const n = 60
	build := func(workers int) *Store {
		g := testutil.RandomConnectedGraph(n, 110, 19)
		x, err := Build(g, Options{Landmarks: 4, RepairWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return NewStore(x)
	}
	serial, par := build(1), build(0)
	if got := par.RepairWorkers(); got < 1 {
		t.Fatalf("RepairWorkers() = %d, want >= 1", got)
	}

	g := testutil.RandomConnectedGraph(n, 110, 19) // mirror for op generation
	edges := testutil.NonEdges(g, 18, 77)
	for i, e := range edges {
		ops := []Op{InsertEdgeOp(e[0], e[1], 0)}
		if i%3 == 2 {
			ops = append(ops, DeleteEdgeOp(e[0], e[1]))
		}
		for _, st := range []*Store{serial, par} {
			if _, err := st.Apply(ops); err != nil {
				t.Fatalf("op %d (workers=%d): %v", i, st.RepairWorkers(), err)
			}
		}
		if se, pe := serial.Epoch(), par.Epoch(); se != pe {
			t.Fatalf("op %d: epochs diverged: serial %d, parallel %d", i, se, pe)
		}
	}

	ss, ps := serial.Stats(), par.Stats()
	if ss.PackedBytes != ps.PackedBytes || ss.LabelEntries != ps.LabelEntries {
		t.Fatalf("packed form diverged: serial {bytes %d entries %d}, parallel {bytes %d entries %d}",
			ss.PackedBytes, ss.LabelEntries, ps.PackedBytes, ps.LabelEntries)
	}
	for u := uint32(0); u < n; u++ {
		for v := uint32(0); v < n; v++ {
			if sd, pd := serial.Query(u, v), par.Query(u, v); sd != pd {
				t.Fatalf("Query(%d,%d): serial %v, parallel %v", u, v, sd, pd)
			}
		}
	}

	// Retuning a live store applies to the next committed batch.
	par.SetRepairWorkers(3)
	if got := par.RepairWorkers(); got != 3 {
		t.Fatalf("after SetRepairWorkers(3): RepairWorkers() = %d", got)
	}
	if got := par.Stats().RepairWorkers; got != 3 {
		t.Fatalf("Stats().RepairWorkers = %d, want 3", got)
	}
}

// TestSetRepairWorkersDuringStats retunes a store in one goroutine while
// another reads its stats, a View's and the Store's, and a writer
// commits. Under -race it fails if a retune writes a snapshot that
// readers can reach.
func TestSetRepairWorkersDuringStats(t *testing.T) {
	g := testutil.RandomConnectedGraph(40, 70, 5)
	edges := testutil.NonEdges(g, 20, 3)
	x, err := Build(g, Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(x)
	st.SetRepairWorkers(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			st.SetRepairWorkers(1 + i%3)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if w := st.Snapshot().Stats().RepairWorkers; w < 1 {
				t.Errorf("View.Stats().RepairWorkers = %d", w)
			}
			if w := st.Stats().RepairWorkers; w < 1 || w > 3 {
				t.Errorf("Store.Stats().RepairWorkers = %d, want 1..3", w)
			}
		}
	}()
	for _, e := range edges {
		if _, err := st.InsertEdge(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	st.SetRepairWorkers(2)
	if _, err := st.DeleteEdge(edges[0][0], edges[0][1]); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().Stats().RepairWorkers; got != 2 {
		t.Fatalf("after a write at SetRepairWorkers(2): View.Stats().RepairWorkers = %d", got)
	}
}
