package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/bench/workload"
)

// TestTraceSmoke replays every workload at toy scale and checks that each
// per-layer metric comes out and the layers agree with ground truth.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds indexes and fsyncs a log")
	}
	for _, spec := range workload.Specs {
		spec.Graph.Vertices = 3000
		t.Run(spec.Name, func(t *testing.T) {
			tr := newTracer()
			out, err := traceWorkload(spec, 1, time.Second, filepath.Join(t.TempDir(), spec.Name), tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.problems) > 0 || out.failed > 0 {
				t.Fatalf("failed=%d problems=%v", out.failed, out.problems)
			}
			for _, m := range perLayer {
				if _, ok := out.metrics[m.name]; !ok {
					t.Errorf("metric %s missing", m.name)
				}
			}
			for _, name := range []string{"httpapi.serve_us", "dynhl.query_us", "repair.ms", "wal.commit_ms"} {
				if !(out.metrics[name] > 0) {
					t.Errorf("%s = %v, want > 0", name, out.metrics[name])
				}
			}
			tasks := 0
			for _, s := range tr.spans {
				if s.End < s.Start {
					t.Fatalf("span %+v ends before it starts", s)
				}
				if s.Name == "repair.task" {
					tasks++
					if p := tr.spans[s.Parent]; p.Name != "repair" || p.Req != s.Req {
						t.Fatalf("repair task parented by %+v", p)
					}
				}
			}
			if tasks == 0 {
				t.Error("no per-landmark repair task spans")
			}
		})
	}
}

// TestBenchmarkJSONPerLayer keeps BENCHMARK.json's per-layer metrics and
// the trace in step.
func TestBenchmarkJSONPerLayer(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the trace", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("metric %d: %s/%s in BENCHMARK.json, %s/%s in the trace", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
