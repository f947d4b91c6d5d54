// Benchmarks regenerating the paper's evaluation, one family per table and
// figure (Section 6). Each benchmark iteration is a single operation (one
// insertion or one query), so ns/op corresponds to the per-operation times
// the paper reports; dataset proxies run at reduced scale (see
// internal/dataset and the -scale flag of cmd/hlbench for full-size runs).
package dynhl_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exper"
	"repro/internal/fulldyn"
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/landmark"
	"repro/internal/pll"
)

const (
	benchScale = 0.10
	benchSeed  = 1
	poolSize   = 4000
)

// benchDatasets is the representative subset exercised by `go test -bench`:
// a sparse internet topology, a dense social network, and a long web crawl.
// cmd/hlbench covers all 12 proxies.
var benchDatasets = []string{"Skitter", "Hollywood", "Indochina"}

func benchGraph(b *testing.B, name string) (*graph.Graph, dataset.Spec) {
	b.Helper()
	spec, err := dataset.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	return dataset.Generate(spec, benchScale, benchSeed), spec
}

// updater abstracts the three methods' insertion paths.
type updater interface {
	insert(u, v uint32) error
}

type hlUpdater struct{ u *hcl.Labelled[*graph.Graph] }

func (x hlUpdater) insert(u, v uint32) error { _, err := x.u.InsertEdge(u, v, 1); return err }

type fdUpdater struct{ idx *fulldyn.Index }

func (x fdUpdater) insert(u, v uint32) error { return x.idx.InsertEdge(u, v) }

type pllUpdater struct{ idx *pll.Index }

func (x pllUpdater) insert(u, v uint32) error { return x.idx.InsertEdge(u, v) }

// benchInsertions drives b.N single-edge insertions through mk, rebuilding
// the index from a fresh clone whenever the insertion pool runs out.
func benchInsertions(b *testing.B, base *graph.Graph, mk func(g *graph.Graph) updater) {
	b.Helper()
	pool := exper.SampleInsertions(base, poolSize, benchSeed+9)
	if len(pool) == 0 {
		b.Fatal("no insertion candidates")
	}
	u := mk(base.Clone())
	b.ResetTimer()
	next := 0
	for i := 0; i < b.N; i++ {
		if next == len(pool) {
			b.StopTimer()
			u = mk(base.Clone())
			next = 0
			b.StartTimer()
		}
		e := pool[next]
		next++
		if err := u.insert(e[0], e[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1: update time -------------------------------------------------

func BenchmarkTable1UpdateIncHL(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			base, spec := benchGraph(b, name)
			lm := landmark.ByDegree(base, spec.Landmarks)
			benchInsertions(b, base, func(g *graph.Graph) updater {
				idx, err := hcl.Build(g, lm, 1)
				if err != nil {
					b.Fatal(err)
				}
				return hlUpdater{idx}
			})
		})
	}
}

func BenchmarkTable1UpdateIncFD(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			base, spec := benchGraph(b, name)
			lm := landmark.ByDegree(base, spec.Landmarks)
			benchInsertions(b, base, func(g *graph.Graph) updater {
				idx, err := fulldyn.Build(g, lm)
				if err != nil {
					b.Fatal(err)
				}
				return fdUpdater{idx}
			})
		})
	}
}

func BenchmarkTable1UpdateIncPLL(b *testing.B) {
	for _, name := range benchDatasets {
		spec, _ := dataset.Lookup(name)
		if !spec.PLLFeasible {
			continue // mirror the paper's "-" cells
		}
		b.Run(name, func(b *testing.B) {
			base, _ := benchGraph(b, name)
			benchInsertions(b, base, func(g *graph.Graph) updater {
				return pllUpdater{pll.Build(g)}
			})
		})
	}
}

// --- Table 1: query time ---------------------------------------------------

func BenchmarkTable1QueryIncHL(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			base, spec := benchGraph(b, name)
			idx, err := hcl.Build(base, landmark.ByDegree(base, spec.Landmarks), 1)
			if err != nil {
				b.Fatal(err)
			}
			applyWorkload(b, hlUpdater{idx}, base)
			qs := exper.SampleQueries(base.NumVertices(), 1<<14, benchSeed+3)
			b.ResetTimer()
			var sink graph.Dist
			for i := 0; i < b.N; i++ {
				q := qs[i&(1<<14-1)]
				sink ^= idx.Query(q[0], q[1])
			}
			_ = sink
		})
	}
}

func BenchmarkTable1QueryIncFD(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			base, spec := benchGraph(b, name)
			idx, err := fulldyn.Build(base, landmark.ByDegree(base, spec.Landmarks))
			if err != nil {
				b.Fatal(err)
			}
			applyWorkload(b, fdUpdater{idx}, base)
			qs := exper.SampleQueries(base.NumVertices(), 1<<14, benchSeed+3)
			b.ResetTimer()
			var sink graph.Dist
			for i := 0; i < b.N; i++ {
				q := qs[i&(1<<14-1)]
				sink ^= idx.Query(q[0], q[1])
			}
			_ = sink
		})
	}
}

func BenchmarkTable1QueryIncPLL(b *testing.B) {
	for _, name := range benchDatasets {
		spec, _ := dataset.Lookup(name)
		if !spec.PLLFeasible {
			continue
		}
		b.Run(name, func(b *testing.B) {
			base, _ := benchGraph(b, name)
			idx := pll.Build(base)
			applyWorkload(b, pllUpdater{idx}, base)
			qs := exper.SampleQueries(base.NumVertices(), 1<<14, benchSeed+3)
			b.ResetTimer()
			var sink graph.Dist
			for i := 0; i < b.N; i++ {
				q := qs[i&(1<<14-1)]
				sink ^= idx.Query(q[0], q[1])
			}
			_ = sink
		})
	}
}

// applyWorkload plays the paper's 1000-insertion workload (scaled to 200)
// before query benchmarking, so queries run against an updated index.
func applyWorkload(b *testing.B, u updater, g *graph.Graph) {
	b.Helper()
	for _, e := range exper.SampleInsertions(g, 200, benchSeed+5) {
		if err := u.insert(e[0], e[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1: labelling size (reported as a metric) ------------------------

func BenchmarkTable1SizeIncHL(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			base, spec := benchGraph(b, name)
			for i := 0; i < b.N; i++ {
				idx, err := hcl.Build(base, landmark.ByDegree(base, spec.Landmarks), 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(idx.Bytes()), "labelbytes")
			}
		})
	}
}

// --- Table 2: dataset generation and summary -------------------------------

func BenchmarkTable2Datasets(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			spec, err := dataset.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				g := dataset.Generate(spec, benchScale, benchSeed)
				s := dataset.Summarize(spec, g, 8, benchSeed)
				b.ReportMetric(s.AvgDeg, "avgdeg")
				b.ReportMetric(s.AvgDist, "avgdist")
			}
		})
	}
}

// --- Figure 1: affected vertices per insertion ------------------------------

func BenchmarkFig1Affected(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			base, spec := benchGraph(b, name)
			lm := landmark.ByDegree(base, spec.Landmarks)
			pool := exper.SampleInsertions(base, poolSize, benchSeed+9)
			idx, err := hcl.Build(base.Clone(), lm, 1)
			if err != nil {
				b.Fatal(err)
			}
			var affected, ops int
			b.ResetTimer()
			next := 0
			for i := 0; i < b.N; i++ {
				if next == len(pool) {
					b.StopTimer()
					idx, err = hcl.Build(base.Clone(), lm, 1)
					if err != nil {
						b.Fatal(err)
					}
					next = 0
					b.StartTimer()
				}
				e := pool[next]
				next++
				st, err := idx.InsertEdge(e[0], e[1], 1)
				if err != nil {
					b.Fatal(err)
				}
				affected += st.AffectedUnion
				ops++
			}
			b.ReportMetric(float64(affected)/float64(ops), "affected/op")
			b.ReportMetric(100*float64(affected)/float64(ops)/float64(base.NumVertices()), "pctaffected/op")
		})
	}
}

// --- Figure 3: update time under varying landmark counts --------------------

func BenchmarkFig3Landmarks(b *testing.B) {
	base, _ := benchGraph(b, "Skitter")
	for _, k := range exper.Fig3LandmarkCounts {
		lm := landmark.ByDegree(base, k)
		b.Run(benchName("IncHL_R", k), func(b *testing.B) {
			benchInsertions(b, base, func(g *graph.Graph) updater {
				idx, err := hcl.Build(g, lm, 1)
				if err != nil {
					b.Fatal(err)
				}
				return hlUpdater{idx}
			})
		})
		b.Run(benchName("IncFD_R", k), func(b *testing.B) {
			benchInsertions(b, base, func(g *graph.Graph) updater {
				idx, err := fulldyn.Build(g, lm)
				if err != nil {
					b.Fatal(err)
				}
				return fdUpdater{idx}
			})
		})
	}
}

// --- Figure 4: cumulative updates vs construction ---------------------------

func BenchmarkFig4Construction(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			base, spec := benchGraph(b, name)
			lm := landmark.ByDegree(base, spec.Landmarks)
			for i := 0; i < b.N; i++ {
				if _, err := hcl.Build(base, lm, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig4UpdateStream(b *testing.B) {
	// The per-insertion cost within a long stream; multiply by 10,000 and
	// compare with BenchmarkFig4Construction to reproduce Figure 4's gap.
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			base, spec := benchGraph(b, name)
			lm := landmark.ByDegree(base, spec.Landmarks)
			benchInsertions(b, base, func(g *graph.Graph) updater {
				idx, err := hcl.Build(g, lm, 1)
				if err != nil {
					b.Fatal(err)
				}
				return hlUpdater{idx}
			})
		})
	}
}

// --- Ablation: partial repair vs per-landmark rebuild ------------------------

func BenchmarkAblationRepairPartial(b *testing.B) {
	base, spec := benchGraph(b, "Flickr")
	lm := landmark.ByDegree(base, spec.Landmarks)
	benchInsertions(b, base, func(g *graph.Graph) updater {
		idx, err := hcl.Build(g, lm, 1)
		if err != nil {
			b.Fatal(err)
		}
		return hlUpdater{idx}
	})
}

func BenchmarkAblationRepairRebuild(b *testing.B) {
	base, spec := benchGraph(b, "Flickr")
	lm := landmark.ByDegree(base, spec.Landmarks)
	benchInsertions(b, base, func(g *graph.Graph) updater {
		idx, err := hcl.Build(g, lm, 1)
		if err != nil {
			b.Fatal(err)
		}
		idx.Strategy = hcl.RepairRebuild
		return hlUpdater{idx}
	})
}

// --- Construction strategies -------------------------------------------------

func BenchmarkBuildSerial(b *testing.B) {
	base, spec := benchGraph(b, "Indochina")
	lm := landmark.ByDegree(base, spec.Landmarks)
	for i := 0; i < b.N; i++ {
		if _, err := hcl.Build(base, lm, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildParallel(b *testing.B) {
	base, spec := benchGraph(b, "Indochina")
	lm := landmark.ByDegree(base, spec.Landmarks)
	for i := 0; i < b.N; i++ {
		if _, err := hcl.Build(base, lm, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, k int) string {
	return fmt.Sprintf("%s=%d", prefix, k)
}
