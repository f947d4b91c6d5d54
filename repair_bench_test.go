// Benchmarks for the repair engine: serial repairs of four workloads, and
// one churn replayed at each repair fan-out.
package dynhl_test

import (
	"fmt"
	"math/rand"
	"testing"

	dynhl "repro"
	"repro/internal/gen"
	"repro/internal/testutil"
)

// BenchmarkRepairParallel times repairs in six groups. The first five pin
// RepairWorkers: 1 and time one workload each, serially:
//
//   - churn deletes a uniformly random existing edge of a Barabási–Albert
//     graph (50k vertices, m = 8, 20 landmarks) and inserts a uniformly
//     random non-edge: what a rewiring workload pays.
//   - directed-insert runs the directed variant's insertion alone on the
//     same graph, each edge an arc from its older to its newer endpoint:
//     every iteration inserts a uniformly random new arc, so both forward
//     and backward passes repair.
//   - directed-churn runs the directed variant's deletion on the directed
//     social-read shape (socialDigraph, 20 landmarks): each iteration
//     deletes a uniformly random existing arc and inserts it again.
//   - weighted-churn runs the weighted variant on the weighted-batch graph
//     (web-locality, 40k vertices, degree 20, weights 1–8, 20 landmarks):
//     each iteration deletes a uniformly random existing edge and inserts
//     it again with its weight.
//   - hub deletes an edge of the top-degree vertex of the churn graph and
//     inserts it again, each as its own Store batch, so every write is a
//     fresh fork's first write to the chunk of 512 vertices that holds the
//     graph's hubs: Barabási–Albert ids put them all in chunk 0, the
//     worst case for a fork's first write.
//
// These five report allocations, since a repair's scratch is pooled.
//
// The sixth group, workers=N, sweeps the repair fan-out over 1, 2, 4 and
// 8. Each iteration inserts an edge and deletes it again (net-zero churn,
// so the index keeps a stable size for any N) on the 50k-vertex kernel
// proxy (100k edges, 16 landmarks), and a row times the two together.
// workers=1 is the serial engine. The repaired labelling is byte-identical
// across fan-outs (parallel_test.go pins it), so the rows differ only in
// the wall-clock effect of fanning the per-landmark repair tasks.
// Single-core hosts time-slice the workers, so there the parallel rows
// measure fan overhead rather than speedup. Deleting the edge just
// inserted is cheap for DecHL, since a fresh edge lies on few
// shortest-path DAGs; that is why churn deletes a random edge instead.
func BenchmarkRepairParallel(b *testing.B) {
	b.Run("churn", func(b *testing.B) {
		g := gen.BarabasiAlbert(50_000, 8, 9)
		x, err := dynhl.Build(g, dynhl.Options{Landmarks: 20, RepairWorkers: 1})
		if err != nil {
			b.Fatal(err)
		}
		var edges [][2]uint32
		g.Edges(func(u, v uint32) { edges = append(edges, [2]uint32{u, v}) })
		rng := rand.New(rand.NewSource(33))
		n := g.NumVertices()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := rng.Intn(len(edges))
			if _, err := x.DeleteEdge(edges[j][0], edges[j][1]); err != nil {
				b.Fatal(err)
			}
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			for u == v || g.HasEdge(u, v) {
				u, v = uint32(rng.Intn(n)), uint32(rng.Intn(n))
			}
			if _, err := x.InsertEdge(u, v, 0); err != nil {
				b.Fatal(err)
			}
			edges[j] = [2]uint32{u, v}
		}
	})
	b.Run("directed-insert", func(b *testing.B) {
		g := gen.BarabasiAlbert(50_000, 8, 9)
		n := g.NumVertices()
		dg := dynhl.NewDigraph(n)
		for i := 0; i < n; i++ {
			dg.AddVertex()
		}
		g.Edges(func(u, v uint32) { dg.AddEdge(min(u, v), max(u, v)) })
		x, err := dynhl.BuildDirected(dg, dynhl.Options{Landmarks: 20, RepairWorkers: 1})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(33))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			for u == v || dg.HasEdge(u, v) {
				u, v = uint32(rng.Intn(n)), uint32(rng.Intn(n))
			}
			if _, err := x.InsertEdge(u, v, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("directed-churn", func(b *testing.B) {
		dg := socialDigraph()
		x, err := dynhl.BuildDirected(dg, dynhl.Options{Landmarks: 20, RepairWorkers: 1})
		if err != nil {
			b.Fatal(err)
		}
		var arcs [][2]uint32
		for u := range uint32(dg.NumVertices()) {
			for _, v := range dg.Out(u) {
				arcs = append(arcs, [2]uint32{u, v})
			}
		}
		rng := rand.New(rand.NewSource(33))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := arcs[rng.Intn(len(arcs))]
			if _, err := x.DeleteEdge(e[0], e[1]); err != nil {
				b.Fatal(err)
			}
			if _, err := x.InsertEdge(e[0], e[1], 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weighted-churn", func(b *testing.B) {
		g := weightedBenchGraph()
		x, err := dynhl.BuildWeighted(g, dynhl.Options{Landmarks: weightedBenchLand, RepairWorkers: 1})
		if err != nil {
			b.Fatal(err)
		}
		var edges [][3]uint32
		for u := range uint32(g.NumVertices()) {
			for _, a := range g.Neighbors(u) {
				if u < a.To {
					edges = append(edges, [3]uint32{u, a.To, a.W})
				}
			}
		}
		rng := rand.New(rand.NewSource(33))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edges[rng.Intn(len(edges))]
			if _, err := x.DeleteEdge(e[0], e[1]); err != nil {
				b.Fatal(err)
			}
			if _, err := x.InsertEdge(e[0], e[1], e[2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hub", func(b *testing.B) {
		g := gen.BarabasiAlbert(50_000, 8, 9)
		hub := g.MaxDegreeVertex()
		nb := g.Neighbors(hub)[0]
		x, err := dynhl.Build(g, dynhl.Options{Landmarks: 20, RepairWorkers: 1})
		if err != nil {
			b.Fatal(err)
		}
		st := dynhl.NewStore(x)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Apply([]dynhl.Op{dynhl.DeleteEdgeOp(hub, nb)}); err != nil {
				b.Fatal(err)
			}
			if _, err := st.Apply([]dynhl.Op{dynhl.InsertEdgeOp(hub, nb, 0)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	base := testutil.RandomConnectedGraph(50_000, 100_000, 9)
	churn := testutil.NonEdges(base, 4096, 33)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			x, err := dynhl.Build(base.Clone(), dynhl.Options{
				Landmarks: 16, Parallel: w != 1, RepairWorkers: w,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := churn[i%len(churn)]
				if _, err := x.InsertEdge(e[0], e[1], 0); err != nil {
					b.Fatal(err)
				}
				if _, err := x.DeleteEdge(e[0], e[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
