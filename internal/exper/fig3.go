package exper

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fulldyn"
	"repro/internal/hcl"
	"repro/internal/landmark"
	"repro/internal/stats"
)

// Fig3LandmarkCounts are the |R| values swept in the paper's Figure 3.
var Fig3LandmarkCounts = []int{10, 20, 30, 40, 50}

// Fig3Row holds the average update time of IncHL+ and IncFD on one dataset
// for one landmark count.
type Fig3Row struct {
	Dataset   string
	Landmarks int
	IncHLMs   float64
	IncFDMs   float64 // NaN when IncFD is infeasible on the dataset
}

// Fig3 reproduces Figure 3: average update time of IncHL+ (vs IncFD) under
// 10–50 landmarks.
func Fig3(cfg Config) ([]Fig3Row, error) {
	cfg = cfg.withDefaults()
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	counts := Fig3LandmarkCounts
	if cfg.Landmarks > 0 {
		counts = []int{cfg.Landmarks}
	}
	var rows []Fig3Row
	var table [][]string
	for _, spec := range specs {
		base := dataset.Generate(spec, cfg.Scale, cfg.Seed)
		inserts := SampleInsertions(base, cfg.Updates, cfg.Seed+303)
		for _, k := range counts {
			lm := landmark.ByDegree(base, k)
			row := Fig3Row{Dataset: spec.Name, Landmarks: k}

			gHL := base.Clone()
			idxHL, err := hcl.Build(gHL, lm, 1)
			if err != nil {
				return nil, fmt.Errorf("fig3: %s |R|=%d: %w", spec.Name, k, err)
			}
			row.IncHLMs, err = timeUpdates(len(inserts), func(i int) error {
				_, err := idxHL.InsertEdge(inserts[i][0], inserts[i][1], 1)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig3: %s |R|=%d: %w", spec.Name, k, err)
			}

			if spec.FDFeasible {
				gFD := base.Clone()
				idxFD, err := fulldyn.Build(gFD, lm)
				if err != nil {
					return nil, fmt.Errorf("fig3: %s |R|=%d: %w", spec.Name, k, err)
				}
				row.IncFDMs, err = timeUpdates(len(inserts), func(i int) error {
					return idxFD.InsertEdge(inserts[i][0], inserts[i][1])
				})
				if err != nil {
					return nil, fmt.Errorf("fig3: %s |R|=%d: %w", spec.Name, k, err)
				}
			} else {
				row.IncFDMs = infeasible().UpdateMs
			}
			rows = append(rows, row)
			table = append(table, []string{
				spec.Name, fmt.Sprintf("%d", k),
				stats.FormatMillis(row.IncHLMs), stats.FormatMillis(row.IncFDMs),
			})
		}
	}
	writeTable(cfg.Out,
		"Figure 3: average update time (ms) under varying landmarks",
		[]string{"Dataset", "|R|", "IncHL+", "IncFD"},
		table)
	return rows, nil
}
