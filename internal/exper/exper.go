// Package exper is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6) on the synthetic dataset
// proxies: Table 2 (dataset summary), Figure 1 (affected-vertex
// distribution), Table 1 (update/query/size comparison of IncHL+, IncFD,
// IncPLL), Figure 3 (update time under varying landmark counts) and
// Figure 4 (cumulative update time versus reconstruction).
package exper

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// Config controls an experiment run. Zero values select the defaults noted
// on each field.
type Config struct {
	// Scale multiplies every proxy's vertex count (default 1.0; tests and
	// benchmarks use smaller values).
	Scale float64
	// Updates is the number of edge insertions per dataset (default 1000,
	// the paper's workload).
	Updates int
	// Queries is the number of distance queries per dataset (default
	// 10000; the paper uses 100000).
	Queries int
	// Landmarks overrides the per-dataset |R| when positive.
	Landmarks int
	// Seed drives every sampled workload (default 1).
	Seed int64
	// Datasets selects a subset by name (default: all 12).
	Datasets []string
	// Out receives the rendered tables (nil discards them).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Updates <= 0 {
		c.Updates = 1000
	}
	if c.Queries <= 0 {
		c.Queries = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Datasets) == 0 {
		c.Datasets = dataset.Names()
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) specs() ([]dataset.Spec, error) {
	out := make([]dataset.Spec, 0, len(c.Datasets))
	for _, name := range c.Datasets {
		s, err := dataset.Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (c Config) landmarkCount(spec dataset.Spec) int {
	if c.Landmarks > 0 {
		return c.Landmarks
	}
	return spec.Landmarks
}

// SampleInsertions returns count vertex pairs that are non-edges of g, all
// distinct, for use as the insertion workload E_I (E_I ∩ E = ∅, Section 6).
func SampleInsertions(g *graph.Graph, count int, seed int64) [][2]uint32 {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	seen := make(map[[2]uint32]bool, count)
	out := make([][2]uint32, 0, count)
	for tries := 0; len(out) < count && tries < 400*count+10000; tries++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		key := [2]uint32{min(u, v), max(u, v)}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, key)
	}
	return out
}

// SampleQueries returns count random vertex pairs.
func SampleQueries(n, count int, seed int64) [][2]uint32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]uint32, count)
	for i := range out {
		out[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	return out
}

// writeTable renders an aligned text table.
func writeTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
