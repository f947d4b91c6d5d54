package dynhl

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/testutil"
	"repro/internal/wgraph"
)

// FuzzPackedDifferential drives a fuzz-derived op stream through a Store
// and a plain Index and checks both against a ground-truth oracle at every
// epoch:
//
//   - a Store, whose published snapshots answer from copy-on-write forks,
//   - a plain Index fed the same batches through its own Apply,
//   - all-pairs BFS over a mirror of the graph.
//
// Both indexes keep their labels in the same representation, the packed
// chunks of internal/hcl. The store runs its repairs under a fuzz-derived
// worker count while the plain index stays serial, so the differential
// covers the parallel repair engine and the snapshot forks: any
// schedule-dependent divergence from the serial result shows up as a
// labelling mismatch.
//
// Any divergence means the store's forks and the serial index disagree or
// the labelling itself is wrong. The seed corpus runs on every plain
// `go test`; `go test -fuzz=FuzzPackedDifferential` explores further.
func FuzzPackedDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0x10, 0x80, 0x33, 0x01, 0xfe, 0x44, 0x12, 0x90, 0x07, 0x65, 0xab, 0xcd, 0x21, 0x43})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		base := testutil.RandomConnectedGraph(24, 40, 97)
		mirror := base.Clone()

		// The first byte picks the store's repair fan-out (it is reused as
		// the first op byte — that correlation is harmless for coverage):
		// 0 resolves to GOMAXPROCS, 1..3 are literal widths.
		workers := 0
		if len(data) > 0 {
			workers = int(data[0]) % 4
		}
		packed, err := Build(base, Options{Landmarks: 4, RepairWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		landmark := make(map[uint32]bool)
		for _, l := range packed.Landmarks() {
			landmark[l] = true
		}
		st := NewStore(packed)

		plain, err := Build(mirror.Clone(), Options{Landmarks: 4, RepairWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}

		// Decode data into batches of pre-validated ops: each op consumes
		// three bytes and is kept only if it will succeed, so the Store's
		// all-or-nothing Apply and the plain Index's stop-at-first-failure
		// Apply stay byte-for-byte in lockstep.
		var ops []Op
		apply := func() {
			if len(ops) == 0 {
				return
			}
			if _, err := st.Apply(ops); err != nil {
				t.Fatalf("store apply: %v", err)
			}
			if _, err := plain.Apply(ops); err != nil {
				t.Fatalf("plain apply: %v", err)
			}
			ops = ops[:0]

			v := st.Snapshot()
			if v.Stats().PackedBytes == 0 {
				t.Fatalf("epoch %d published unpacked", v.Epoch())
			}
			n := uint32(mirror.NumVertices())
			if int(n) != v.NumVertices() || int(n) != plain.NumVertices() {
				t.Fatalf("vertex counts diverged: mirror %d, packed %d, plain %d",
					n, v.NumVertices(), plain.NumVertices())
			}
			oracle := testutil.AllPairsOracle(mirror)
			for u := uint32(0); u < n; u++ {
				for w := uint32(0); w < n; w++ {
					want := oracle[u][w]
					if got := v.Query(u, w); got != want {
						t.Fatalf("epoch %d: packed Query(%d,%d) = %d, BFS %d", v.Epoch(), u, w, got, want)
					}
					if got := plain.Query(u, w); got != want {
						t.Fatalf("epoch %d: slice Query(%d,%d) = %d, BFS %d", v.Epoch(), u, w, got, want)
					}
				}
			}
		}

		for i := 0; i+2 < len(data) && mirror.NumVertices() < 48; i += 3 {
			n := uint32(mirror.NumVertices())
			a := uint32(data[i+1]) % n
			b := uint32(data[i+2]) % n
			switch data[i] % 8 {
			case 0, 1, 2: // insert edge
				if a != b && !mirror.HasEdge(a, b) {
					mirror.MustAddEdge(a, b)
					ops = append(ops, InsertEdgeOp(a, b, 0))
				}
			case 3, 4: // delete edge
				if a != b && mirror.HasEdge(a, b) {
					if err := mirror.RemoveEdge(a, b); err != nil {
						t.Fatal(err)
					}
					ops = append(ops, DeleteEdgeOp(a, b))
				}
			case 5: // insert vertex joined to a (and b when distinct)
				neighbors := []uint32{a}
				if b != a {
					neighbors = append(neighbors, b)
				}
				id := mirror.AddVertex()
				for _, w := range neighbors {
					mirror.MustAddEdge(id, w)
				}
				ops = append(ops, InsertVertexOp(Arcs(neighbors...)...))
			case 6: // isolate a non-landmark vertex
				if !landmark[a] && mirror.Degree(a) > 0 {
					for _, w := range append([]uint32(nil), mirror.Neighbors(a)...) {
						if err := mirror.RemoveEdge(a, w); err != nil {
							t.Fatal(err)
						}
					}
					ops = append(ops, DeleteVertexOp(a))
				}
			case 7: // epoch boundary
				apply()
			}
		}
		apply()

		// The final packed and slice labellings must agree entry for entry,
		// not just on sampled answers.
		final := st.Unwrap().(*Index)
		if err := final.core.EqualLabels(plain.core); err != nil {
			t.Fatalf("packed store and slice index labellings diverged: %v", err)
		}
	})
}

// FuzzDeleteMatchesBuild drives fuzz-derived edge deletions and insertions
// through the undirected, the directed and the weighted index and requires
// the labelling after every op to equal a fresh build over the same graph
// and landmarks: the local IncHL+ and DecHL repairs must reproduce a
// rebuild exactly. It is the differential FuzzPackedDifferential cannot
// be, since both indexes that one compares run the same repair. The first
// byte shapes the random graph (vertex count and density, from forests
// full of bridges to about two edges per vertex), the second picks the
// random landmark set's size and the repair fan-out; each later pair of
// bytes names an arc, deleted when present and inserted otherwise. The
// weighted graph has the same edges, with weights 1–8 drawn from a second
// source seeded by the first two bytes; an inserted edge's weight comes
// from what its two bytes leave over after naming the arc. An input costs
// up to 64 ops with three fresh builds each, so bound the minimization of
// new inputs (CI passes -fuzzminimizetime=2s): under the default 60 s
// budget one long input holds a worker for tens of seconds.
func FuzzDeleteMatchesBuild(f *testing.F) {
	f.Add([]byte{7, 3, 1, 2, 3, 4, 5, 6, 1, 2, 9, 9, 0, 5, 2, 1})
	f.Add([]byte{200, 17, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 1, 1, 2})
	f.Add([]byte{90, 250, 12, 40, 40, 12, 3, 3, 33, 7, 7, 33, 21, 2, 2, 21, 12, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 10 + int(data[0]%24)
		m := n*(1+int(data[0]/64))/2 + int(data[0]%7)
		k := 1 + int(data[1]%8)
		opt := Options{RepairWorkers: 1 + int(data[1]/8)%3}
		rng := rand.New(rand.NewSource(int64(data[0])<<8 | int64(data[1])))
		wrng := rand.New(rand.NewSource(int64(data[1])<<8 | int64(data[0])))
		ug, dg, wg := NewGraph(n), NewDigraph(n), NewWeightedGraph(n)
		for i := 0; i < n; i++ {
			ug.AddVertex()
			dg.AddVertex()
			wg.AddVertex()
		}
		for i := 0; i < m; i++ {
			if a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n)); a != b {
				ug.AddEdge(a, b)
				dg.AddEdge(a, b)
				wg.AddEdge(a, b, Dist(1+wrng.Intn(8)))
			}
		}
		var lms []uint32
		for _, v := range rng.Perm(n)[:k] {
			lms = append(lms, uint32(v))
		}
		u, err := BuildWithLandmarks(ug, lms, opt)
		if err != nil {
			t.Fatal(err)
		}
		d, err := BuildDirectedWithLandmarks(dg, lms, opt)
		if err != nil {
			t.Fatal(err)
		}
		w, err := BuildWeightedWithLandmarks(wg, lms, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 2; i+1 < len(data) && i < 2+2*64; i += 2 {
			a, b := uint32(data[i])%uint32(n), uint32(data[i+1])%uint32(n)
			if a == b {
				continue
			}
			if ug.HasEdge(a, b) {
				_, err = u.DeleteEdge(a, b)
			} else {
				_, err = u.InsertEdge(a, b, 0)
			}
			if err != nil {
				t.Fatalf("undirected op %d on (%d,%d): %v", i/2, a, b, err)
			}
			if dg.HasEdge(a, b) {
				_, err = d.DeleteEdge(a, b)
			} else {
				_, err = d.InsertEdge(a, b, 0)
			}
			if err != nil {
				t.Fatalf("directed op %d on %d→%d: %v", i/2, a, b, err)
			}
			if wg.HasEdge(a, b) {
				_, err = w.DeleteEdge(a, b)
			} else {
				_, err = w.InsertEdge(a, b, Dist(1+(int(data[i])/n+int(data[i+1])/n)%8))
			}
			if err != nil {
				t.Fatalf("weighted op %d on (%d,%d): %v", i/2, a, b, err)
			}
			// A build only reads its graph, and each fresh index is
			// dropped before the next op, so no graph copy is needed.
			fu, err := BuildWithLandmarks(ug, lms, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := u.core.EqualLabels(fu.core); err != nil {
				t.Fatalf("undirected, after op %d on (%d,%d): %v", i/2, a, b, err)
			}
			fd, err := BuildDirectedWithLandmarks(dg, lms, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.core.EqualLabels(fd.core); err != nil {
				t.Fatalf("directed, after op %d on %d→%d: %v", i/2, a, b, err)
			}
			fw, err := BuildWeightedWithLandmarks(wg, lms, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.core.EqualLabels(fw.core); err != nil {
				t.Fatalf("weighted, after op %d on (%d,%d): %v", i/2, a, b, err)
			}
		}
	})
}

// FuzzReadIndex feeds arbitrary bytes to the labelling loaders of all three
// variants — what PUT /labels does with an untrusted body. The first byte
// picks the variant, the rest is the stream. A loader must never panic,
// and any stream it accepts must save and load again, the re-save
// byte-identical to the first save, over distinct landmarks. The seed
// corpus holds each variant's real saved stream, so mutations start from
// well-formed input, and an undirected stream naming one landmark twice.
func FuzzReadIndex(f *testing.F) {
	ug := testutil.RandomConnectedGraph(24, 40, 61)
	dg := NewDigraph(24)
	wg := NewWeightedGraph(24)
	for i := 0; i < 24; i++ {
		dg.AddVertex()
		wg.AddVertex()
	}
	ug.Edges(func(u, v uint32) {
		dg.MustAddEdge(u, v)
		wg.MustAddEdge(u, v, Dist(1+(u+v)%5))
	})
	u, err := Build(ug, Options{Landmarks: 3})
	if err != nil {
		f.Fatal(err)
	}
	d, err := BuildDirected(dg, Options{Landmarks: 3})
	if err != nil {
		f.Fatal(err)
	}
	w, err := BuildWeighted(wg, Options{Landmarks: 3})
	if err != nil {
		f.Fatal(err)
	}
	loaders := []func(r io.Reader) (Saver, error){
		func(r io.Reader) (Saver, error) { return LoadIndex(r, ug) },
		func(r io.Reader) (Saver, error) { return LoadDirectedIndex(r, dg) },
		func(r io.Reader) (Saver, error) { return LoadWeightedIndex(r, wg) },
	}
	// Seeds are written at the file offset that needs the least page
	// padding (readers accept any pad), keeping them small for the mutator.
	var undirected []byte
	for i, x := range []interface {
		SaveAt(w io.Writer, base int64) (int64, []Span, error)
	}{u, d, w} {
		var seed []byte
		for base := int64(0); base < int64(os.Getpagesize()); base += 8 {
			var buf bytes.Buffer
			if _, _, err := x.SaveAt(&buf, base); err != nil {
				f.Fatal(err)
			}
			if seed == nil || buf.Len() < len(seed)-1 {
				seed = append([]byte{byte(i)}, buf.Bytes()...)
			}
		}
		f.Add(seed)
		if i == 0 {
			undirected = seed
		}
	}
	// The landmark ids start 12 bytes into the stream: make the second one
	// repeat the first.
	dup := append([]byte(nil), undirected...)
	copy(dup[1+16:1+20], dup[1+12:1+16])
	f.Add(dup)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		load := loaders[int(data[0])%len(loaders)]
		x, err := load(bytes.NewReader(data[1:]))
		if err != nil {
			return
		}
		seen := map[uint32]bool{}
		for _, v := range x.(interface{ Landmarks() []uint32 }).Landmarks() {
			if seen[v] {
				t.Fatalf("accepted a stream naming landmark %d twice", v)
			}
			seen[v] = true
		}
		var first, second bytes.Buffer
		if err := x.Save(&first); err != nil {
			t.Fatalf("saving an accepted stream: %v", err)
		}
		y, err := load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading an accepted stream: %v", err)
		}
		if err := y.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("save → load → save is not byte-identical")
		}
	})
}

// FuzzSparsified runs the three bounded searches, bfs.Sparsified,
// digraph.Sparsified and wgraph.Sparsified, on one fuzz-derived graph and
// avoid set, against plain BFS and Dijkstra on the pruned graph, where the
// avoided vertices other than the endpoints lose their edges. Each search
// runs at every bound of testutil.BoundsAround(d), d its pruned distance,
// and at the literal bound data[3]%16, and must return d exactly when
// d < bound and graph.Inf otherwise. The weighted search runs three times:
// with no lower bound, with the exact pruned distance to the other endpoint
// as its lower bound, and with (data[3]>>4)/16 of that distance. Every
// distance entry of the scratch must be graph.Inf again at the end. data[0] sizes the graph (3–34 vertices), data[1] and data[2]
// are the endpoints, data[4] and data[5] each avoid a vertex unless their
// top bit is set, and every later triple (a, b, w) adds the edge a–b, the
// arc a→b and a weighted edge of weight w%8+1, or 1<<30 for w = 255, which
// saturates graph.AddDist.
func FuzzSparsified(f *testing.F) {
	ring := func(n, u, v, av0, av1 byte) []byte {
		data := []byte{n - 3, u, v, 0, av0, av1}
		for i := byte(0); i < n; i++ {
			data = append(data, i, (i+1)%n, i)
		}
		return data
	}
	f.Add(ring(7, 0, 3, 0x80, 0x80))
	f.Add(ring(8, 1, 5, 3, 0x80))
	f.Add(ring(9, 2, 6, 4, 8))
	f.Add([]byte{20, 0, 9, 5, 0x80, 2, 0, 1, 1, 1, 2, 255, 2, 9, 3, 0, 4, 7, 4, 9, 1, 0, 2, 2, 3, 9, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 3 + int(data[0]%32)
		u, v := uint32(data[1])%uint32(n), uint32(data[2])%uint32(n)
		var av []uint32
		for _, b := range data[4:6] {
			if b&0x80 == 0 {
				av = append(av, uint32(b)%uint32(n))
			}
		}
		avoid := func(x uint32) bool { return slices.Contains(av, x) }
		kept := func(x uint32) bool { return !avoid(x) || x == u || x == v }

		ug, pu := graph.New(n), graph.New(n)
		dg, pd := digraph.New(n), digraph.New(n)
		wg, pw := wgraph.New(n), wgraph.New(n)
		for i := 0; i < n; i++ {
			ug.AddVertex()
			pu.AddVertex()
			dg.AddVertex()
			pd.AddVertex()
			wg.AddVertex()
			pw.AddVertex()
		}
		for i := 6; i+2 < len(data); i += 3 {
			a, b := uint32(data[i])%uint32(n), uint32(data[i+1])%uint32(n)
			w := 1 + graph.Dist(data[i+2]%8)
			if data[i+2] == 255 {
				w = 1 << 30
			}
			if a == b {
				continue
			}
			ug.AddEdge(a, b)
			dg.AddEdge(a, b)
			wg.AddEdge(a, b, w)
			if kept(a) && kept(b) {
				pu.AddEdge(a, b)
				pd.AddEdge(a, b)
				pw.AddEdge(a, b, w)
			}
		}

		bs, ws := bfs.Spaces.Get(n), bfs.Spaces.Get(n)
		defer bfs.Spaces.Put(bs)
		defer bfs.Spaces.Put(ws)
		toU, toV := make([]graph.Dist, n), make([]graph.Dist, n)
		pw.Dijkstra(u, toU)
		pw.Dijkstra(v, toV)
		weighted := func(lower func(x, t uint32) graph.Dist) func(bound graph.Dist) graph.Dist {
			return func(bound graph.Dist) graph.Dist { return wg.SparsifiedLB(u, v, bound, avoid, lower, ws) }
		}
		for _, c := range []struct {
			name   string
			d      graph.Dist
			search func(bound graph.Dist) graph.Dist
		}{
			{"bfs", bfs.Dist(pu, u, v), func(bound graph.Dist) graph.Dist { return bfs.Sparsified(ug, u, v, bound, avoid, bs) }},
			{"digraph", pd.Dist(u, v), func(bound graph.Dist) graph.Dist { return dg.Sparsified(u, v, bound, avoid, bs) }},
			{"wgraph", toU[v], func(bound graph.Dist) graph.Dist { return wg.Sparsified(u, v, bound, avoid, ws) }},
			{"wgraph exact lower bound", toU[v], weighted(testutil.ScaledLowerBounds(toU, toV, v, 1, 1))},
			{"wgraph scaled lower bound", toU[v], weighted(testutil.ScaledLowerBounds(toU, toV, v, graph.Dist(data[3]>>4), 16))},
		} {
			for _, bound := range append(testutil.BoundsAround(c.d), graph.Dist(data[3]%16)) {
				want := c.d
				if c.d >= bound {
					want = graph.Inf
				}
				if got := c.search(bound); got != want {
					t.Fatalf("%s: Sparsified(%d,%d) avoiding %v, bound %d: got %d, want %d", c.name, u, v, av, bound, got, want)
				}
			}
		}
		for x := 0; x < n; x++ {
			if bs.DistU[x] != graph.Inf || bs.DistV[x] != graph.Inf || ws.DistU[x] != graph.Inf || ws.DistV[x] != graph.Inf {
				t.Fatalf("scratch not restored at vertex %d", x)
			}
		}
	})
}
