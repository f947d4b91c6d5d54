package exper

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// smallCfg keeps harness smoke tests fast: two contrasting datasets at tiny
// scale.
func smallCfg(buf *bytes.Buffer) Config {
	return Config{
		Scale:    0.04,
		Updates:  30,
		Queries:  200,
		Seed:     7,
		Datasets: []string{"Skitter", "Indochina"},
		Out:      buf,
	}
}

func TestSampleInsertionsAreFreshNonEdges(t *testing.T) {
	g := testutil.RandomConnectedGraph(60, 100, 3)
	ins := SampleInsertions(g, 40, 9)
	if len(ins) != 40 {
		t.Fatalf("got %d insertions", len(ins))
	}
	seen := map[[2]uint32]bool{}
	for _, e := range ins {
		if g.HasEdge(e[0], e[1]) {
			t.Errorf("sampled existing edge %v", e)
		}
		if e[0] == e[1] {
			t.Errorf("sampled self-loop %v", e)
		}
		if seen[e] {
			t.Errorf("duplicate sample %v", e)
		}
		seen[e] = true
	}
}

func TestSampleQueriesDeterministic(t *testing.T) {
	a := SampleQueries(100, 50, 3)
	b := SampleQueries(100, 50, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must sample same queries")
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	var buf bytes.Buffer
	sums, err := Table2(smallCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("got %d summaries", len(sums))
	}
	for _, s := range sums {
		if s.V == 0 || s.E == 0 || s.AvgDist <= 0 {
			t.Errorf("degenerate summary: %+v", s)
		}
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("output missing table title")
	}
}

func TestFig1Smoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig1(smallCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.PctAffected) != 30 {
			t.Fatalf("%s: got %d samples", r.Dataset, len(r.PctAffected))
		}
		for i := 1; i < len(r.PctAffected); i++ {
			if r.PctAffected[i-1] < r.PctAffected[i] {
				t.Fatalf("%s: series not descending", r.Dataset)
			}
		}
		if r.PctAffected[0] < 0 || r.PctAffected[0] > 100 {
			t.Fatalf("%s: percentage out of range: %v", r.Dataset, r.PctAffected[0])
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table1(smallCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.IsNaN(r.IncHL.UpdateMs) || r.IncHL.Bytes <= 0 {
			t.Errorf("%s: IncHL+ must always have results: %+v", r.Dataset, r.IncHL)
		}
		if math.IsNaN(r.IncFD.UpdateMs) {
			t.Errorf("%s: IncFD feasible here: %+v", r.Dataset, r.IncFD)
		}
		// The headline size claim: IncHL+ labelling much smaller than IncFD.
		if r.IncFD.Bytes > 0 && r.IncHL.Bytes >= r.IncFD.Bytes {
			t.Errorf("%s: IncHL+ size %d not below IncFD %d", r.Dataset, r.IncHL.Bytes, r.IncFD.Bytes)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Skitter") || !strings.Contains(out, "Indochina") {
		t.Error("rendered table missing datasets")
	}
}

func TestTable1InfeasibleCells(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCfg(&buf)
	cfg.Datasets = []string{"Clueweb09"}
	cfg.Updates = 5
	cfg.Queries = 20
	cfg.Landmarks = 10 // keep the 150-landmark default out of the smoke test
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if !math.IsNaN(r.IncFD.UpdateMs) || !math.IsNaN(r.IncPLL.UpdateMs) {
		t.Errorf("Clueweb09 must mirror the paper's '-' cells: %+v", r)
	}
	if r.IncFD.Bytes != -1 || r.IncPLL.Bytes != -1 {
		t.Errorf("infeasible sizes must be -1: %+v", r)
	}
	if !strings.Contains(buf.String(), "-") {
		t.Error("rendered table should contain '-' for infeasible cells")
	}
}

func TestFig3Smoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCfg(&buf)
	cfg.Datasets = []string{"Flickr"}
	cfg.Updates = 15
	rows, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig3LandmarkCounts) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Fig3LandmarkCounts))
	}
	for _, r := range rows {
		if r.IncHLMs <= 0 || math.IsNaN(r.IncFDMs) {
			t.Errorf("row %+v has missing timings", r)
		}
	}
}

func TestFig4Smoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCfg(&buf)
	cfg.Datasets = []string{"Skitter"}
	cfg.Updates = 20 // → 200 total, batches of 10
	rows, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ConstructionMs <= 0 {
		t.Error("construction time missing")
	}
	if len(r.CumulativeMs) == 0 {
		t.Fatal("no batches recorded")
	}
	for i := 1; i < len(r.CumulativeMs); i++ {
		if r.CumulativeMs[i] < r.CumulativeMs[i-1] {
			t.Error("cumulative time must be monotone")
		}
	}
	if r.UpdatesDone[len(r.UpdatesDone)-1] != 200 {
		t.Errorf("total updates: got %d, want 200", r.UpdatesDone[len(r.UpdatesDone)-1])
	}
}

func TestAblationSmoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallCfg(&buf)
	cfg.Datasets = []string{"Flickr"}
	cfg.Updates = 10
	rows, err := Ablation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.PartialMs <= 0 || r.RebuildMs <= 0 {
		t.Fatalf("timings missing: %+v", r)
	}
	if r.SkippedLandmarks < 0 || r.SkippedLandmarks > 1 {
		t.Fatalf("skip fraction out of range: %+v", r)
	}
}

func TestConfigUnknownDataset(t *testing.T) {
	cfg := Config{Datasets: []string{"NoSuch"}}
	if _, err := Table2(cfg); err == nil {
		t.Error("unknown dataset must error")
	}
}
