package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/bench/workload"
)

// TestSmokeAllWorkloads runs every workload at toy scale through a real
// hlserver built from this tree, so a broken benchmark fails here rather
// than in a full run.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hlserver")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hlserver")
	if err := goBuild("..", "./cmd/hlserver", bin); err != nil {
		t.Fatal(err)
	}
	for _, spec := range workload.Specs {
		spec.Graph.Vertices = 3000
		if spec.PrepInserts > 0 {
			spec.PrepInserts = 20
		}
		t.Run(spec.Name, func(t *testing.T) {
			res, err := runWorkload(spec, runConfig{
				server: bin,
				work:   filepath.Join(dir, spec.Name),
				seed:   1,
				warmup: 300 * time.Millisecond,
				window: time.Second,
				setups: 1,
				checks: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed > 0 {
				t.Fatalf("correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v, want a positive value", m.name, v)
				}
			}
			if res.Samples["checked_answers"] < 64 {
				t.Errorf("checked %d answers, want at least 64", res.Samples["checked_answers"])
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step: the
// workloads in run order with their reasons, and the end-to-end metrics
// with their units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workload.Specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workload.Specs))
	}
	for i, w := range bj.Workloads {
		if s := workload.Specs[i]; w.Name != s.Name || w.Why != s.Why {
			t.Errorf("workload %d: %q (%q) in BENCHMARK.json, %q (%q) in the code", i, w.Name, w.Why, s.Name, s.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("metric %d: %s/%s in BENCHMARK.json, %s/%s in the code", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
}
