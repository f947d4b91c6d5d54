package exper

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/hcl"
	"repro/internal/landmark"
	"repro/internal/stats"
)

// AblationRow quantifies the design choices called out in DESIGN.md on one
// dataset: the partial repair of IncHL+ versus rebuilding each affected
// landmark's labelling (RepairRebuild), and how often the equal-distance
// rule of Lemma 4.3 eliminates a landmark outright.
type AblationRow struct {
	Dataset          string
	PartialMs        float64 // IncHL+ repair, mean per update
	RebuildMs        float64 // per-landmark rebuild repair, mean per update
	Speedup          float64 // RebuildMs / PartialMs
	SkippedLandmarks float64 // mean fraction of landmarks skipped per update
}

// Ablation runs the repair-strategy and landmark-skip ablations.
func Ablation(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	var table [][]string
	for _, spec := range specs {
		base := dataset.Generate(spec, cfg.Scale, cfg.Seed)
		k := cfg.landmarkCount(spec)
		lm := landmark.ByDegree(base, k)
		inserts := SampleInsertions(base, cfg.Updates, cfg.Seed+505)
		row := AblationRow{Dataset: spec.Name}

		var skipped, totalLm int
		{
			g := base.Clone()
			idx, err := hcl.Build(g, lm, 1)
			if err != nil {
				return nil, fmt.Errorf("ablation: %s: %w", spec.Name, err)
			}
			row.PartialMs, err = timeUpdates(len(inserts), func(i int) error {
				st, err := idx.InsertEdge(inserts[i][0], inserts[i][1], 1)
				skipped += st.LandmarksSkipped
				totalLm += st.LandmarksTotal
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("ablation: %s: %w", spec.Name, err)
			}
		}
		{
			g := base.Clone()
			idx, err := hcl.Build(g, lm, 1)
			if err != nil {
				return nil, fmt.Errorf("ablation: %s: %w", spec.Name, err)
			}
			idx.Strategy = hcl.RepairRebuild
			row.RebuildMs, err = timeUpdates(len(inserts), func(i int) error {
				_, err := idx.InsertEdge(inserts[i][0], inserts[i][1], 1)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("ablation: %s: %w", spec.Name, err)
			}
		}
		row.Speedup = row.RebuildMs / row.PartialMs
		if totalLm > 0 {
			row.SkippedLandmarks = float64(skipped) / float64(totalLm)
		}
		rows = append(rows, row)
		table = append(table, []string{
			spec.Name,
			stats.FormatMillis(row.PartialMs),
			stats.FormatMillis(row.RebuildMs),
			fmt.Sprintf("%.1fx", row.Speedup),
			fmt.Sprintf("%.0f%%", 100*row.SkippedLandmarks),
		})
	}
	writeTable(cfg.Out,
		"Ablation: partial repair vs per-landmark rebuild; Lemma 4.3 skip rate",
		[]string{"Dataset", "partial ms", "rebuild ms", "speedup", "skipped |R|"},
		table)
	return rows, nil
}
