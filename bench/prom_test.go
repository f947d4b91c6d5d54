package main

import (
	"math"
	"os"
	"testing"
)

func loadScrape(t *testing.T, path string) scrape {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The fixtures are two scrapes of a durable hlserver taken around five
// insert/delete pairs and one distance query.
func TestServerLayersFromFixture(t *testing.T) {
	d := promDelta{loadScrape(t, "testdata/metrics_before.txt"), loadScrape(t, "testdata/metrics_after.txt")}
	got := serverLayers(d, 2)
	for k, want := range map[string]float64{
		"server.stage.repair_ms":  74.0343504,
		"server.stage.pack_ms":    0.8320708,
		"server.query_us":         1.592,
		"server.group_callers":    1,
		"wal.fsync_ms":            0.7376212,
		"wal.bytes_per_op":        22.5,
		"wal.fsyncs_per_op":       1,
		"wal.checkpoints":         0,
		"runtime.gc_cycles_per_s": 1.5,
		"runtime.heap_mb":         2.9389104e+07 / (1 << 20),
		"server.batch_us":         0, // no batch queries: no observation
	} {
		if math.Abs(got[k]-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, want %v", k, got[k], want)
		}
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "m")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("# HELP x y\nok_total 3\nbroken_line\n")
	f.Seek(0, 0)
	defer f.Close()
	if _, err := parseProm(f); err == nil {
		t.Fatal("malformed exposition parsed without error")
	}
}
