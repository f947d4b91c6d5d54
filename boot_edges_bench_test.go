// Benchmarks of the two halves of a boot from an edge list — parsing the
// list into a graph and constructing the labelling — on the social-read
// graph shape, and of the construction on a high-diameter ring lattice,
// where the covered-flag BFS must stay top-down.
package dynhl_test

import (
	"bytes"
	"sync"
	"testing"

	dynhl "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// socialEdgeList is the social-read shape — a Barabási–Albert graph of
// 200,000 vertices with m = 8 — as an edge-list file in memory.
var socialEdgeList = sync.OnceValues(func() ([]byte, error) {
	var buf bytes.Buffer
	err := graph.WriteEdgeList(&buf, gen.BarabasiAlbert(200_000, 8, 11))
	return buf.Bytes(), err
})

// BenchmarkReadGraph measures parsing the social-read edge list into a
// graph, as hlserver -graph does from its file.
func BenchmarkReadGraph(b *testing.B) {
	data, err := socialEdgeList()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynhl.ReadGraph(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSocial measures the serial construction of the labelling
// of the social-read graph, as hlserver -graph loads it, with 20
// landmarks: one covered-flag BFS per landmark, whose widest levels run
// bottom-up.
func BenchmarkBuildSocial(b *testing.B) {
	data, err := socialEdgeList()
	if err != nil {
		b.Fatal(err)
	}
	g, err := dynhl.ReadGraph(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	benchBuild(b, g)
}

// BenchmarkBuildRing measures the same construction on a Watts–Strogatz
// ring lattice without rewiring (200,000 vertices, degree 6): thousands of
// narrow levels, where the direction switch must never engage or cost.
func BenchmarkBuildRing(b *testing.B) {
	benchBuild(b, gen.WattsStrogatz(200_000, 6, 0, 3))
}

func benchBuild(b *testing.B, g *graph.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynhl.Build(g, dynhl.Options{Landmarks: 20}); err != nil {
			b.Fatal(err)
		}
	}
}
