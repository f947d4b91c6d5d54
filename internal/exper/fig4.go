package exper

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/hcl"
	"repro/internal/landmark"
)

// Fig4Row holds one dataset's scalability test: the cumulative IncHL+
// update time after each batch of insertions, against the time to construct
// the labelling from scratch (the paper's horizontal reference line).
type Fig4Row struct {
	Dataset        string
	ConstructionMs float64
	BatchSize      int
	UpdatesDone    []int     // 500, 1000, ... (scaled)
	CumulativeMs   []float64 // cumulative update time at each point
}

// Fig4 reproduces Figure 4: update time of IncHL+ for up to 10,000
// insertions (cfg.Updates×10 when overridden) against from-scratch
// construction time, in batches of cfg.Updates/2 (500 at the paper's
// defaults).
func Fig4(cfg Config) ([]Fig4Row, error) {
	cfg = cfg.withDefaults()
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	total := cfg.Updates * 10 // paper: 1000-update workload → 10,000 total
	batch := cfg.Updates / 2  // paper: batches of 500
	if batch < 1 {
		batch = 1
	}
	var rows []Fig4Row
	var table [][]string
	for _, spec := range specs {
		row, err := fig4Dataset(spec, cfg, total, batch)
		if err != nil {
			return nil, fmt.Errorf("fig4: dataset %s: %w", spec.Name, err)
		}
		rows = append(rows, row)
		last := len(row.CumulativeMs) - 1
		ratio := row.CumulativeMs[last] / row.ConstructionMs
		table = append(table, []string{
			spec.Name,
			fmt.Sprintf("%.1f", row.ConstructionMs),
			fmt.Sprintf("%d", row.UpdatesDone[last]),
			fmt.Sprintf("%.1f", row.CumulativeMs[last]),
			fmt.Sprintf("%.2fx", ratio),
		})
	}
	writeTable(cfg.Out,
		"Figure 4: cumulative IncHL+ update time vs construction time",
		[]string{"Dataset", "construct ms", "#updates", "cumulative ms", "cum/construct"},
		table)
	return rows, nil
}

func fig4Dataset(spec dataset.Spec, cfg Config, total, batch int) (Fig4Row, error) {
	g := dataset.Generate(spec, cfg.Scale, cfg.Seed)
	k := cfg.landmarkCount(spec)
	lm := landmark.ByDegree(g, k)

	row := Fig4Row{Dataset: spec.Name, BatchSize: batch}
	start := time.Now()
	idx, err := hcl.Build(g, lm, 1)
	if err != nil {
		return row, err
	}
	row.ConstructionMs = float64(time.Since(start)) / float64(time.Millisecond)

	inserts := SampleInsertions(g, total, cfg.Seed+404)
	var cum float64
	for done := 0; done < len(inserts); {
		end := done + batch
		if end > len(inserts) {
			end = len(inserts)
		}
		t0 := time.Now()
		for ; done < end; done++ {
			if _, err := idx.InsertEdge(inserts[done][0], inserts[done][1], 1); err != nil {
				return row, err
			}
		}
		cum += float64(time.Since(t0)) / float64(time.Millisecond)
		row.UpdatesDone = append(row.UpdatesDone, done)
		row.CumulativeMs = append(row.CumulativeMs, cum)
	}
	return row, nil
}
