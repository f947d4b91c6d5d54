package wal

import (
	"fmt"
	"os"
	"testing"

	dynhl "repro"
	"repro/internal/arena"
	"repro/internal/testutil"
)

// bootSizes are the checkpoint scales BenchmarkMappedBoot compares. The
// default keeps CI's one-iteration smoke cheap; set DYNHL_BENCH_BOOT=large
// to add the scales recorded in EXPERIMENTS.md, where the mmap-vs-copy-in
// gap is the point.
func bootSizes() []int {
	sizes := []int{50_000}
	if os.Getenv("DYNHL_BENCH_BOOT") == "large" {
		sizes = append(sizes, 200_000, 500_000)
	}
	return sizes
}

// BenchmarkMappedBoot measures turning a clean checkpoint into a serving
// oracle with the label entries mmap'd in place (openCheckpoint, the load
// Recover takes on a host with mmap) versus decoded onto the heap (copyIn,
// the load on a host without it) — the recovery-latency claim of the
// mapped arena: copy-in boot scales with labelling size, mapped boot pays
// only the header, graph and offset pages plus whatever queries fault in.
// One query runs inside the timed region so the mapped figure includes at
// least one real page-in, not just deferral.
func BenchmarkMappedBoot(b *testing.B) {
	for _, n := range bootSizes() {
		dir := b.TempDir()
		g := testutil.RandomConnectedGraph(n, 3*n, 13)
		idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 16})
		if err != nil {
			b.Fatal(err)
		}
		d, err := Create(dir, idx, Options{Logf: b.Logf})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		path := newestCheckpoint(b, dir)
		info, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}

		for _, tc := range []struct {
			name string
			load func() (*dynhl.Index, uint64, error)
		}{
			{"mmap", func() (*dynhl.Index, uint64, error) { return openCheckpoint(path) }},
			{"copyin", func() (*dynhl.Index, uint64, error) {
				data, err := os.ReadFile(path)
				if err != nil {
					return nil, 0, err
				}
				return copyIn(data, path)
			}},
		} {
			mapped := tc.name == "mmap"
			b.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(b *testing.B) {
				if mapped && !arena.Supported() {
					b.Skip("mmap not supported on this platform")
				}
				b.SetBytes(info.Size())
				for i := 0; i < b.N; i++ {
					x, _, err := tc.load()
					if err != nil {
						b.Fatal(err)
					}
					if x.Query(0, uint32(n-1)) == dynhl.Inf {
						b.Fatal("loaded oracle cannot answer")
					}
					b.StopTimer()
					if got := x.Stats().MappedBytes > 0; got != mapped {
						b.Fatalf("MappedBytes>0 = %v on the %s row", got, tc.name)
					}
					b.StartTimer()
				}
			})
		}
	}
}
