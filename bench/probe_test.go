package main

import (
	"math"
	"testing"
	"time"
)

func TestProbeMeasuresCPUTime(t *testing.T) {
	p := startProbe()
	time.Sleep(3 * probePeriod)
	us, err := p.end()
	if err != nil {
		t.Fatal(err)
	}
	// The work unit is a few milliseconds of CPU on any machine that runs
	// the benchmark; a value far outside that means the clock is wrong.
	if us < 10 || us > 1e6 {
		t.Fatalf("work unit took %v µs of CPU", us)
	}
}

func TestNormalizeScalesToReference(t *testing.T) {
	res := &result{
		Metrics: map[string]float64{},
		Raw:     map[string]float64{"setup_s": 1, "latency_p50_ms": 2, "latency_p90_ms": 4, "throughput_per_s": 100, "rss_peak_mb": 50},
		// Set-up ran on a machine half as fast as the reference, the
		// window on one twice as fast.
		ProbeUS: map[string]float64{"setup": 2 * probeRefUS, "window": probeRefUS / 2},
	}
	normalize(res)
	for k, want := range map[string]float64{"setup_s": 0.5, "latency_p50_ms": 4, "latency_p90_ms": 8, "throughput_per_s": 50, "rss_peak_mb": 50} {
		if math.Abs(res.Metrics[k]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, res.Metrics[k], want)
		}
	}
}
