package exper

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/fulldyn"
	"repro/internal/graph"
	"repro/internal/hcl"
	"repro/internal/landmark"
	"repro/internal/pll"
	"repro/internal/stats"
)

// MethodResult holds one method's measurements on one dataset. Times are
// NaN and Bytes -1 when the method is infeasible on the dataset (mirroring
// the "-" cells of the paper's Table 1).
type MethodResult struct {
	UpdateMs float64 // mean per-insertion update time
	QueryMs  float64 // mean per-query time after all updates
	Bytes    int64   // labelling size after all updates
}

func infeasible() MethodResult {
	return MethodResult{UpdateMs: math.NaN(), QueryMs: math.NaN(), Bytes: -1}
}

// Table1Row is one dataset's comparison of the three methods.
type Table1Row struct {
	Dataset   string
	Vertices  int
	Edges     uint64
	Landmarks int
	IncHL     MethodResult
	IncFD     MethodResult
	IncPLL    MethodResult
}

// Table1 reproduces the paper's Table 1: average update time, average query
// time and labelling size of IncHL+, IncFD and IncPLL after applying the
// insertion workload.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	specs, err := cfg.specs()
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(specs))
	for _, spec := range specs {
		row, err := table1Dataset(spec, cfg)
		if err != nil {
			return nil, fmt.Errorf("table1: dataset %s: %w", spec.Name, err)
		}
		rows = append(rows, row)
	}
	renderTable1(cfg, rows)
	return rows, nil
}

func table1Dataset(spec dataset.Spec, cfg Config) (Table1Row, error) {
	base := dataset.Generate(spec, cfg.Scale, cfg.Seed)
	k := cfg.landmarkCount(spec)
	inserts := SampleInsertions(base, cfg.Updates, cfg.Seed+101)
	queries := SampleQueries(base.NumVertices(), cfg.Queries, cfg.Seed+202)
	lm := landmark.ByDegree(base, k)
	row := Table1Row{
		Dataset:   spec.Name,
		Vertices:  base.NumVertices(),
		Edges:     base.NumEdges(),
		Landmarks: k,
	}

	// IncHL+ (always feasible — the paper's headline scalability claim).
	{
		g := base.Clone()
		idx, err := hcl.Build(g, lm, 1)
		if err != nil {
			return row, err
		}
		updMs, err := timeUpdates(len(inserts), func(i int) error {
			_, err := idx.InsertEdge(inserts[i][0], inserts[i][1], 1)
			return err
		})
		if err != nil {
			return row, err
		}
		row.IncHL = MethodResult{
			UpdateMs: updMs,
			QueryMs:  timeQueries(queries, func(u, v uint32) graph.Dist { return idx.Query(u, v) }),
			Bytes:    idx.Bytes(),
		}
	}

	// IncFD.
	if spec.FDFeasible {
		g := base.Clone()
		idx, err := fulldyn.Build(g, lm)
		if err != nil {
			return row, err
		}
		updMs, err := timeUpdates(len(inserts), func(i int) error {
			return idx.InsertEdge(inserts[i][0], inserts[i][1])
		})
		if err != nil {
			return row, err
		}
		row.IncFD = MethodResult{
			UpdateMs: updMs,
			QueryMs:  timeQueries(queries, func(u, v uint32) graph.Dist { return idx.Query(u, v) }),
			Bytes:    idx.Bytes(),
		}
	} else {
		row.IncFD = infeasible()
	}

	// IncPLL.
	if spec.PLLFeasible {
		g := base.Clone()
		idx := pll.Build(g)
		updMs, err := timeUpdates(len(inserts), func(i int) error {
			return idx.InsertEdge(inserts[i][0], inserts[i][1])
		})
		if err != nil {
			return row, err
		}
		row.IncPLL = MethodResult{
			UpdateMs: updMs,
			QueryMs:  timeQueries(queries, func(u, v uint32) graph.Dist { return idx.Query(u, v) }),
			Bytes:    idx.Bytes(),
		}
	} else {
		row.IncPLL = infeasible()
	}
	return row, nil
}

// timeUpdates measures the mean wall-clock milliseconds of n update
// operations.
func timeUpdates(n int, op func(i int) error) (float64, error) {
	if n == 0 {
		return math.NaN(), nil
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(time.Millisecond) / float64(n), nil
}

// timeQueries measures the mean wall-clock milliseconds of the query batch.
func timeQueries(pairs [][2]uint32, q func(u, v uint32) graph.Dist) float64 {
	if len(pairs) == 0 {
		return math.NaN()
	}
	var sink graph.Dist
	start := time.Now()
	for _, p := range pairs {
		sink ^= q(p[0], p[1])
	}
	_ = sink
	return float64(time.Since(start)) / float64(time.Millisecond) / float64(len(pairs))
}

func renderTable1(cfg Config, rows []Table1Row) {
	fmtBytes := func(b int64) string {
		if b < 0 {
			return "-"
		}
		return stats.FormatBytes(b)
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			r.Dataset,
			stats.FormatMillis(r.IncHL.UpdateMs), stats.FormatMillis(r.IncFD.UpdateMs), stats.FormatMillis(r.IncPLL.UpdateMs),
			stats.FormatMillis(r.IncHL.QueryMs), stats.FormatMillis(r.IncFD.QueryMs), stats.FormatMillis(r.IncPLL.QueryMs),
			fmtBytes(r.IncHL.Bytes), fmtBytes(r.IncFD.Bytes), fmtBytes(r.IncPLL.Bytes),
		})
	}
	writeTable(cfg.Out,
		"Table 1: update time (ms), query time (ms), labelling size",
		[]string{"Dataset", "upd IncHL+", "upd IncFD", "upd IncPLL",
			"qry IncHL+", "qry IncFD", "qry IncPLL",
			"size IncHL+", "size IncFD", "size IncPLL"},
		table)
}
