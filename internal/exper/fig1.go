package exper

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/hcl"
	"repro/internal/landmark"
	"repro/internal/stats"
)

// Fig1Row is the affected-vertex distribution of one dataset: for each of
// the sampled insertions, the percentage of vertices affected, sorted in
// descending order — the series the paper plots in Figure 1.
type Fig1Row struct {
	Dataset     string
	Vertices    int
	PctAffected []float64 // sorted descending
}

// Fig1 reproduces Figure 1: the distribution of the percentage of affected
// vertices over the insertion workload (1000 insertions in the paper),
// computed from IncHL+'s find phase.
func Fig1(cfg Config) ([]Fig1Row, error) {
	cfg = cfg.withDefaults()
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	rows := make([]Fig1Row, 0, len(specs))
	table := make([][]string, 0, len(specs))
	for _, spec := range specs {
		row, err := fig1Dataset(spec, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig1: dataset %s: %w", spec.Name, err)
		}
		rows = append(rows, row)
		s := stats.Summarize(row.PctAffected)
		table = append(table, []string{
			spec.Name,
			fmt.Sprintf("%d", row.Vertices),
			fmt.Sprintf("%.5f", s.Max),
			fmt.Sprintf("%.5f", s.P90),
			fmt.Sprintf("%.5f", s.Median),
			fmt.Sprintf("%.5f", s.Min),
			fmt.Sprintf("%.5f", s.Mean),
		})
	}
	writeTable(cfg.Out,
		"Figure 1: % of affected vertices per insertion (descending distribution)",
		[]string{"Dataset", "|V|", "max%", "p90%", "median%", "min%", "mean%"},
		table)
	return rows, nil
}

func fig1Dataset(spec dataset.Spec, cfg Config) (Fig1Row, error) {
	g := dataset.Generate(spec, cfg.Scale, cfg.Seed)
	k := cfg.landmarkCount(spec)
	lm := landmark.ByDegree(g, k)
	idx, err := hcl.Build(g, lm, 1)
	if err != nil {
		return Fig1Row{}, err
	}
	inserts := SampleInsertions(g, cfg.Updates, cfg.Seed+77)
	row := Fig1Row{Dataset: spec.Name, Vertices: g.NumVertices()}
	for _, e := range inserts {
		st, err := idx.InsertEdge(e[0], e[1], 1)
		if err != nil {
			return row, err
		}
		row.PctAffected = append(row.PctAffected,
			100*float64(st.AffectedUnion)/float64(g.NumVertices()))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(row.PctAffected)))
	return row, nil
}
