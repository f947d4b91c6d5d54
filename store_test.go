package dynhl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	dynhl "repro"
	"repro/internal/bfs"
	"repro/internal/testutil"
)

// storeVariants builds one small oracle per variant for Store tests.
func storeVariants(t *testing.T) map[string]dynhl.Oracle {
	t.Helper()
	und, err := dynhl.Build(testutil.RandomConnectedGraph(50, 100, 7), dynhl.Options{Landmarks: 5})
	if err != nil {
		t.Fatal(err)
	}
	dg := dynhl.NewDigraph(40)
	for i := 0; i < 40; i++ {
		dg.AddVertex()
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 140; i++ {
		u, v := uint32(rng.Intn(40)), uint32(rng.Intn(40))
		if u != v {
			dg.MustAddEdge(u, v)
		}
	}
	dir, err := dynhl.BuildDirected(dg, dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	wg := dynhl.NewWeightedGraph(40)
	for i := 0; i < 40; i++ {
		wg.AddVertex()
	}
	for i := 0; i < 140; i++ {
		u, v := uint32(rng.Intn(40)), uint32(rng.Intn(40))
		if u != v {
			wg.MustAddEdge(u, v, dynhl.Dist(1+rng.Intn(9)))
		}
	}
	wei, err := dynhl.BuildWeighted(wg, dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]dynhl.Oracle{"undirected": und, "directed": dir, "weighted": wei}
}

// sampleAll captures every pairwise distance of a snapshot for later
// comparison (the graphs here are small).
func sampleAll(v dynhl.View) []dynhl.Dist {
	n := v.NumVertices()
	pairs := make([]dynhl.Pair, 0, n*n)
	for u := 0; u < n; u++ {
		for w := 0; w < n; w++ {
			pairs = append(pairs, dynhl.Pair{U: uint32(u), V: uint32(w)})
		}
	}
	return v.QueryBatch(pairs)
}

// TestSnapshotIsolation pins the core snapshot contract on all variants: a
// View taken before an Apply keeps answering the old epoch's distances
// bit-for-bit, while the store serves the new epoch.
func TestSnapshotIsolation(t *testing.T) {
	for name, o := range storeVariants(t) {
		t.Run(name, func(t *testing.T) {
			st := dynhl.NewStore(o)
			if st.Epoch() != 0 {
				t.Fatalf("fresh store epoch: %d", st.Epoch())
			}
			v0 := st.Snapshot()
			before := sampleAll(v0)

			// Find two non-adjacent vertices to connect.
			var ops []dynhl.Op
			found := false
			for u := uint32(0); int(u) < v0.NumVertices() && !found; u++ {
				for w := u + 1; int(w) < v0.NumVertices() && !found; w++ {
					if v0.Query(u, w) > 1 {
						ops = append(ops, dynhl.InsertEdgeOp(u, w, 0))
						found = true
					}
				}
			}
			if !found {
				t.Fatal("no insertable pair")
			}
			ops = append(ops, dynhl.InsertVertexOp(dynhl.Arc{To: 0}))

			sums, err := st.Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
			if len(sums) != len(ops) {
				t.Fatalf("summaries: %d for %d ops", len(sums), len(ops))
			}
			if sums[1].NewVertex == nil {
				t.Fatal("insert_vertex summary missing NewVertex")
			}
			if st.Epoch() != 1 {
				t.Fatalf("epoch after Apply: %d", st.Epoch())
			}
			if v0.Epoch() != 0 {
				t.Fatalf("old view's epoch changed: %d", v0.Epoch())
			}
			after := sampleAll(v0)
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("old view answer %d changed: %d -> %d", i, before[i], after[i])
				}
			}
			v1 := st.Snapshot()
			if v1.Epoch() != 1 {
				t.Fatalf("new view epoch: %d", v1.Epoch())
			}
			if v1.NumVertices() != v0.NumVertices()+1 {
				t.Fatalf("new view vertices: %d, old %d", v1.NumVertices(), v0.NumVertices())
			}
			if v1.Query(ops[0].U, ops[0].V) != 1 {
				t.Fatalf("new view misses the inserted edge")
			}
			if err := st.Verify(); err != nil {
				t.Fatal(err)
			}

			// An empty batch publishes nothing.
			if sums, err := st.Apply(nil); err != nil || sums != nil {
				t.Fatalf("empty Apply: %v %v", sums, err)
			}
			if st.Epoch() != 1 {
				t.Fatalf("empty Apply bumped the epoch: %d", st.Epoch())
			}
		})
	}
}

// TestApplyAllOrNothing pins the transactional contract: a batch that fails
// mid-way publishes nothing — the epoch is unchanged and (for the
// serialisable variant) the labelling is byte-identical.
func TestApplyAllOrNothing(t *testing.T) {
	for name, o := range storeVariants(t) {
		t.Run(name, func(t *testing.T) {
			st := dynhl.NewStore(o)
			// A first successful batch, so we are not failing off epoch 0.
			if _, err := st.Apply([]dynhl.Op{dynhl.InsertVertexOp(dynhl.Arc{To: 1})}); err != nil {
				t.Fatal(err)
			}
			epoch := st.Epoch()
			v := st.Snapshot()
			before := sampleAll(v)
			var savedBefore bytes.Buffer
			canSave := st.Save(&savedBefore) == nil

			// insert a valid edge, then delete a missing one: fails on op 1.
			var goodU, goodV uint32
			found := false
			for u := uint32(0); int(u) < v.NumVertices() && !found; u++ {
				for w := u + 1; int(w) < v.NumVertices() && !found; w++ {
					if v.Query(u, w) > 1 {
						goodU, goodV = u, w
						found = true
					}
				}
			}
			if !found {
				t.Fatal("no insertable pair")
			}
			_, err := st.Apply([]dynhl.Op{
				dynhl.InsertEdgeOp(goodU, goodV, 0),
				dynhl.DeleteEdgeOp(goodU, goodV+1000), // unknown vertex
			})
			if err == nil {
				t.Fatal("mixed batch must fail")
			}
			if !errors.Is(err, dynhl.ErrNoSuchVertex) {
				t.Fatalf("error must wrap the sentinel: %v", err)
			}
			if st.Epoch() != epoch {
				t.Fatalf("failed batch bumped the epoch: %d -> %d", epoch, st.Epoch())
			}
			cur := st.Snapshot()
			if cur.Query(goodU, goodV) == 1 {
				t.Fatal("half-applied batch is visible")
			}
			after := sampleAll(cur)
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("distance %d changed across a failed batch", i)
				}
			}
			if canSave {
				var savedAfter bytes.Buffer
				if err := st.Save(&savedAfter); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(savedBefore.Bytes(), savedAfter.Bytes()) {
					t.Fatal("labelling not byte-identical after a failed batch")
				}
			}
			if err := st.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestApplyAllOrNothingHammer races concurrent batch readers against a
// writer that interleaves succeeding batches with batches engineered to
// fail after their first op. Readers assert two things under -race: the
// failed batches' first op is never visible (all-or-nothing), and every
// batch they run is internally consistent with a single epoch.
func TestApplyAllOrNothingHammer(t *testing.T) {
	const n = 100
	g := testutil.RandomConnectedGraph(n, 220, 13)
	// Reserve a marker pair: never connected by the generator or the
	// writer's successful batches.
	marker := testutil.NonEdges(g, 1, 99)[0]
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 6})
	if err != nil {
		t.Fatal(err)
	}
	st := dynhl.NewStore(idx)

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 120; step++ {
			if step%3 == 0 {
				// Failing batch: its first op inserts the marker edge, its
				// second deletes a non-existent edge. The fork must be
				// discarded whole — no reader may ever see the marker.
				_, err := st.Apply([]dynhl.Op{
					dynhl.InsertEdgeOp(marker[0], marker[1], 0),
					dynhl.DeleteEdgeOp(0, 9999),
				})
				if err == nil {
					errs <- fmt.Errorf("engineered batch did not fail")
					return
				}
				continue
			}
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			if u == v || (u == marker[0] && v == marker[1]) || (u == marker[1] && v == marker[0]) {
				continue
			}
			cur := st.Unwrap().(*dynhl.Index).Graph()
			var ops []dynhl.Op
			if cur.HasEdge(u, v) {
				ops = append(ops, dynhl.DeleteEdgeOp(u, v))
			} else {
				ops = append(ops, dynhl.InsertEdgeOp(u, v, 0))
			}
			if _, err := st.Apply(ops); err != nil {
				errs <- err
				return
			}
		}
	}()

	readers := 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				v := st.Snapshot()
				if d := v.Query(marker[0], marker[1]); d == 1 {
					errs <- fmt.Errorf("epoch %d: marker edge of a failed batch is visible", v.Epoch())
					return
				}
				pairs := make([]dynhl.Pair, 40)
				for i := range pairs {
					pairs[i] = dynhl.Pair{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
				}
				// The same batch against the same View twice must agree
				// exactly: a View never mixes epochs.
				a := v.QueryBatch(pairs)
				b := v.QueryBatch(pairs)
				for i := range a {
					if a[i] != b[i] {
						errs <- fmt.Errorf("epoch %d: view answered pair %d differently twice: %d vs %d",
							v.Epoch(), i, a[i], b[i])
						return
					}
				}
			}
		}(int64(300 + r))
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialEpochConsistency interleaves Apply batches with
// concurrent batch queries and checks every batch against BFS ground truth
// for the exact epoch the reader's snapshot carries — the differential
// proof that QueryBatch answers are always consistent with a single epoch.
func TestDifferentialEpochConsistency(t *testing.T) {
	const n = 80
	g := testutil.RandomConnectedGraph(n, 170, 17)
	idx, err := dynhl.Build(g.Clone(), dynhl.Options{Landmarks: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := dynhl.NewStore(idx)

	// truth maps epoch -> frozen ground-truth graph. Epoch 0 is the build.
	var truth sync.Map
	truth.Store(uint64(0), g.Clone())

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(23))
		shadow := g.Clone()
		for step := 0; step < 40; step++ {
			// Build a random mixed batch against the shadow graph.
			var ops []dynhl.Op
			for len(ops) < 4 {
				u := uint32(rng.Intn(n))
				v := uint32(rng.Intn(n))
				if u == v {
					continue
				}
				if shadow.HasEdge(u, v) {
					shadow.RemoveEdge(u, v)
					ops = append(ops, dynhl.DeleteEdgeOp(u, v))
				} else {
					shadow.MustAddEdge(u, v)
					ops = append(ops, dynhl.InsertEdgeOp(u, v, 0))
				}
			}
			if _, err := st.Apply(ops); err != nil {
				errs <- err
				return
			}
			truth.Store(st.Epoch(), shadow.Clone())
		}
	}()

	readers := 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			checked := 0
			for !done.Load() || checked == 0 {
				v := st.Snapshot()
				pairs := make([]dynhl.Pair, 32)
				for i := range pairs {
					pairs[i] = dynhl.Pair{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
				}
				ds := v.QueryBatch(pairs)
				gt, ok := truth.Load(v.Epoch())
				if !ok {
					continue // writer has not recorded this epoch yet
				}
				tg := gt.(*dynhl.Graph)
				for i, p := range pairs {
					if want := bfs.Dist(tg, p.U, p.V); ds[i] != want {
						errs <- fmt.Errorf("epoch %d: d(%d,%d) = %d, ground truth %d",
							v.Epoch(), p.U, p.V, ds[i], want)
						return
					}
				}
				checked++
			}
		}(int64(400 + r))
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestQueryBatchCtx pins the context-aware batch path: live contexts answer
// exactly like QueryBatch, cancelled ones fail fast with the context error.
func TestQueryBatchCtx(t *testing.T) {
	idx, err := dynhl.Build(testutil.RandomConnectedGraph(60, 120, 3), dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := dynhl.NewStore(idx)
	rng := rand.New(rand.NewSource(1))
	pairs := make([]dynhl.Pair, 500)
	for i := range pairs {
		pairs[i] = dynhl.Pair{U: uint32(rng.Intn(60)), V: uint32(rng.Intn(60))}
	}
	got, err := st.QueryBatchCtx(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	want := st.QueryBatch(pairs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: ctx batch %d, plain batch %d", i, got[i], want[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Snapshot().QueryBatchCtx(ctx, pairs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
}

// TestStoreSaveLoad pins capability forwarding through snapshots: Save
// writes the current epoch without blocking, Load publishes a new one, and
// variants without the capability answer errors.ErrUnsupported.
func TestStoreSaveLoad(t *testing.T) {
	idx, err := dynhl.Build(testutil.RandomConnectedGraph(30, 60, 6), dynhl.Options{Landmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := dynhl.NewStore(idx)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	epoch := st.Epoch()
	if err := st.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != epoch+1 {
		t.Fatalf("Load must publish a new epoch: %d -> %d", epoch, st.Epoch())
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}

	g := dynhl.NewDigraph(0)
	for i := 0; i < 5; i++ {
		g.AddVertex()
	}
	for i := uint32(0); i < 4; i++ {
		g.MustAddEdge(i, i+1)
	}
	dir, err := dynhl.BuildDirected(g, dynhl.Options{Landmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every variant serialises now; a directed store round-trips through
	// Save/Load and answers identically afterwards.
	ds := dynhl.NewStore(dir)
	var dbuf bytes.Buffer
	if err := ds.Save(&dbuf); err != nil {
		t.Fatalf("directed Save: %v", err)
	}
	before := ds.Query(0, 4)
	dirEpoch := ds.Epoch()
	if err := ds.Load(bytes.NewReader(dbuf.Bytes())); err != nil {
		t.Fatalf("directed Load: %v", err)
	}
	if ds.Epoch() != dirEpoch+1 {
		t.Fatalf("directed Load must publish a new epoch: %d -> %d", dirEpoch, ds.Epoch())
	}
	if got := ds.Query(0, 4); got != before {
		t.Fatalf("directed Load changed answers: %d vs %d", got, before)
	}
	if err := ds.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestOpJSONRoundTrip pins the wire encoding of op batches.
func TestOpJSONRoundTrip(t *testing.T) {
	ops := []dynhl.Op{
		dynhl.InsertEdgeOp(1, 2, 3),
		dynhl.DeleteEdgeOp(4, 5),
		dynhl.InsertVertexOp(dynhl.Arc{To: 6, W: 2}, dynhl.Arc{To: 7, In: true}),
		dynhl.DeleteVertexOp(8),
	}
	b, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"insert_edge"`, `"delete_edge"`, `"insert_vertex"`, `"delete_vertex"`} {
		if !bytes.Contains(b, []byte(want)) {
			t.Fatalf("encoding %s misses %s", b, want)
		}
	}
	var back []dynhl.Op
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ops) {
		t.Fatalf("round trip length: %d", len(back))
	}
	for i := range ops {
		if back[i].Kind != ops[i].Kind || back[i].U != ops[i].U || back[i].V != ops[i].V || back[i].W != ops[i].W {
			t.Fatalf("op %d round trip: %+v != %+v", i, back[i], ops[i])
		}
	}
	var bad dynhl.Op
	if err := json.Unmarshal([]byte(`{"op":"explode"}`), &bad); err == nil {
		t.Fatal("unknown op kind must not decode")
	}
}

// opaqueOracle hides the concrete variant from the Store.
type opaqueOracle struct{ dynhl.Oracle }

// TestStoreFallback pins that a Store refuses oracles it cannot fork: the
// snapshot machinery needs a copy-on-write variant, so wrapping anything
// else panics at construction instead of running a degraded mode.
func TestStoreFallback(t *testing.T) {
	idx, err := dynhl.Build(testutil.RandomConnectedGraph(30, 60, 9), dynhl.Options{Landmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, wrap := range map[string]func(){
		"NewStore":   func() { dynhl.NewStore(&opaqueOracle{idx}) },
		"NewStoreAt": func() { dynhl.NewStoreAt(&opaqueOracle{idx}, 7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a non-forkable oracle", name)
				}
			}()
			wrap()
		}()
	}
	if err := dynhl.NewStore(idx).Reset(&opaqueOracle{idx}, 3); err == nil {
		t.Error("Reset accepted a non-forkable oracle")
	}
}

// TestApplyEpochAttribution pins that ApplyCtx reports the epoch each
// batch actually published, even when other publishes land in between.
func TestApplyEpochAttribution(t *testing.T) {
	idx, err := dynhl.Build(testutil.RandomConnectedGraph(30, 60, 21), dynhl.Options{Landmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := dynhl.NewStore(idx)
	ctx := context.Background()
	edges := testutil.NonEdges(idx.Graph(), 3, 2)
	for i, e := range edges {
		res, err := st.ApplyCtx(ctx, []dynhl.Op{dynhl.InsertEdgeOp(e[0], e[1], 0)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != uint64(i+1) {
			t.Fatalf("batch %d attributed to epoch %d", i, res.Epoch)
		}
	}
	// A failed batch reports the unchanged epoch it saw.
	if res, err := st.ApplyCtx(ctx, []dynhl.Op{dynhl.DeleteEdgeOp(0, 9999)}); err == nil || res.Epoch != uint64(len(edges)) {
		t.Fatalf("failed batch: epoch %d err %v", res.Epoch, err)
	}
	// LoadEpoch round trip attributes the published epoch.
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	epoch, err := st.LoadEpoch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != uint64(len(edges)+1) {
		t.Fatalf("LoadEpoch attributed %d", epoch)
	}
}

// TestConcurrentShim pins that wrapping a Store shares it: epochs and
// snapshots are visible through both references.
func TestConcurrentShim(t *testing.T) {
	idx, err := dynhl.Build(testutil.RandomConnectedGraph(30, 60, 11), dynhl.Options{Landmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := dynhl.NewStore(idx)
	if dynhl.NewStore(st) != st {
		t.Fatal("NewStore(Store) must return the same store")
	}
	v := dynhl.NewStore(st).Snapshot()
	if v.Epoch() != 0 {
		t.Fatalf("shared snapshot epoch: %d", v.Epoch())
	}
}
