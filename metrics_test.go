package dynhl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// exposition renders every registry a store speaks for as one Prometheus
// text document.
func exposition(t *testing.T, st *Store) string {
	t.Helper()
	var b strings.Builder
	if err := obs.WriteAll(&b, st.MetricsRegistries()...); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// sampleValue extracts one series' value from an exposition, failing when
// the series is missing.
func sampleValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		name, raw, ok := strings.Cut(line, " ")
		if ok && name == series {
			var v float64
			if _, err := fmt.Sscanf(raw, "%g", &v); err != nil {
				t.Fatalf("series %s: bad value %q: %v", series, raw, err)
			}
			return v
		}
	}
	t.Fatalf("series %s missing from exposition:\n%s", series, text)
	return 0
}

// TestPipelineStageMetrics drives applies through the group-commit
// pipeline and checks every stage histogram, the group distributions and
// the outcome counters moved.
func TestPipelineStageMetrics(t *testing.T) {
	idx, err := Build(testutil.RandomConnectedGraph(80, 160, 3), Options{Landmarks: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(idx)
	for i := 0; i < 4; i++ {
		u, v := uint32(i), uint32(40+i)
		if _, err := st.Apply([]Op{InsertEdgeOp(u, v, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	text := exposition(t, st)
	for _, stage := range []string{"coalesce_wait", "repair", "wal_commit", "publish"} {
		series := fmt.Sprintf(`dynhl_apply_stage_seconds_count{stage=%q}`, stage)
		if got := sampleValue(t, text, series); got < 4 {
			t.Errorf("stage %s recorded %g groups, want >= 4", stage, got)
		}
	}
	if got := sampleValue(t, text, "dynhl_apply_groups_total"); got < 4 {
		t.Errorf("groups_total %g, want >= 4", got)
	}
	if got := sampleValue(t, text, "dynhl_apply_ops_total"); got < 4 {
		t.Errorf("ops_total %g, want >= 4", got)
	}
	if got := sampleValue(t, text, "dynhl_apply_group_callers_count"); got < 4 {
		t.Errorf("group size histogram count %g, want >= 4", got)
	}
	if got := sampleValue(t, text, "dynhl_epoch"); got != 4 {
		t.Errorf("dynhl_epoch %g, want 4", got)
	}

	// A rejected batch counts once, even though the survivors republish.
	if _, err := st.Apply([]Op{InsertEdgeOp(0, 40, 0)}); err == nil {
		t.Fatal("duplicate edge insert must fail")
	}
	text = exposition(t, st)
	if got := sampleValue(t, text, "dynhl_apply_rejected_total"); got != 1 {
		t.Errorf("rejected_total %g, want 1", got)
	}
}

// TestSlowQueryLog checks the threshold gate and the rate bound: every
// slow query counts, at most one line logs per interval, and the rest
// count as suppressed.
func TestSlowQueryLog(t *testing.T) {
	idx, err := Build(testutil.RandomConnectedGraph(40, 80, 3), Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(idx)

	var mu sync.Mutex
	var lines []string
	st.SetSlowQueryLog(time.Nanosecond, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})

	v := st.Snapshot()
	const queries = 50
	for i := 0; i < queries; i++ {
		v.Query(0, uint32(1+i%20)) // every query exceeds a 1ns threshold
	}

	mu.Lock()
	logged := len(lines)
	first := ""
	if logged > 0 {
		first = lines[0]
	}
	mu.Unlock()
	if logged < 1 {
		t.Fatal("no slow-query line logged")
	}
	// 50 back-to-back queries run well inside one 100ms interval: the
	// bound allows the first line and suppresses the rest (a second line
	// only if the loop straddled an interval boundary).
	if logged > 2 {
		t.Fatalf("slow-query log not rate-bounded: %d lines for %d queries", logged, queries)
	}
	for _, want := range []string{"slow query:", "variant=undirected", "epoch=0", "latency="} {
		if !strings.Contains(first, want) {
			t.Errorf("slow-query line %q missing %q", first, want)
		}
	}
	if st.metrics.slowTotal.Value() != queries {
		t.Errorf("slow_queries_total %d, want %d", st.metrics.slowTotal.Value(), queries)
	}
	if got := st.metrics.slowSuppressed.Value(); got != queries-uint64(logged) {
		t.Errorf("suppressed %d, logged %d, want their sum to be %d", got, logged, queries)
	}

	// Threshold off again: nothing further counts.
	st.SetSlowQueryLog(0, nil)
	v.Query(0, 1)
	if st.metrics.slowTotal.Value() != queries {
		t.Error("slow query counted with the threshold off")
	}
}

// TestSnapshotPinsCounter checks epoch pins count Snapshot handouts.
func TestSnapshotPinsCounter(t *testing.T) {
	idx, err := Build(testutil.RandomConnectedGraph(30, 60, 3), Options{Landmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(idx)
	before := st.metrics.pins.Value()
	st.Snapshot()
	st.Snapshot()
	if got := st.metrics.pins.Value() - before; got != 2 {
		t.Errorf("pins advanced by %d, want 2", got)
	}
}

// TestStoreVariantLabelAndType checks, for each of the three variants,
// that a store labels its slow-query lines and its /metrics series with
// the variant's name, and that Unwrap returns the variant's exported type
// when the store is built and after Load and LoadMappedFile.
func TestStoreVariantLabelAndType(t *testing.T) {
	const vertices = 30
	rng := rand.New(rand.NewSource(29))
	ug, dg, wg := NewGraph(vertices), NewDigraph(vertices), NewWeightedGraph(vertices)
	for i := 0; i < vertices; i++ {
		ug.AddVertex()
		dg.AddVertex()
		wg.AddVertex()
	}
	for v := uint32(1); v < vertices; v++ {
		for range 3 {
			u := uint32(rng.Intn(int(v)))
			ug.AddEdge(u, v)
			dg.AddEdge(u, v)
			dg.AddEdge(v, u)
			wg.AddEdge(u, v, Dist(1+rng.Intn(4)))
		}
	}
	opts := Options{Landmarks: 3}
	ux, err := Build(ug, opts)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := BuildDirected(dg, opts)
	if err != nil {
		t.Fatal(err)
	}
	wx, err := BuildWeighted(wg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		o      Oracle
		isType func(Oracle) bool
	}{
		{"undirected", ux, func(o Oracle) bool { _, ok := o.(*Index); return ok }},
		{"directed", dx, func(o Oracle) bool { _, ok := o.(*DirectedIndex); return ok }},
		{"weighted", wx, func(o Oracle) bool { _, ok := o.(*WeightedIndex); return ok }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore(tc.o)
			unwrapped := func(after string) {
				t.Helper()
				if !tc.isType(st.Unwrap()) {
					t.Errorf("after %s: Unwrap returned %T", after, st.Unwrap())
				}
				if err := st.Verify(); err != nil {
					t.Errorf("after %s: %v", after, err)
				}
			}
			unwrapped("NewStore")

			var line string
			st.SetSlowQueryLog(time.Nanosecond, func(format string, args ...any) {
				line = fmt.Sprintf(format, args...)
			})
			st.Query(0, vertices-1)
			if want := "variant=" + tc.name; !strings.Contains(line, want) {
				t.Errorf("slow-query line %q missing %q", line, want)
			}
			series := fmt.Sprintf("dynhl_query_seconds_count{variant=%q}", tc.name)
			if got := sampleValue(t, exposition(t, st), series); got != 1 {
				t.Errorf("%s = %g, want 1", series, got)
			}

			var saved bytes.Buffer
			if err := st.Save(&saved); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "labels.bin")
			if err := os.WriteFile(path, saved.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := st.Load(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatal(err)
			}
			unwrapped("Load")
			if _, err := st.LoadMappedFile(path); errors.Is(err, ErrNotMappable) {
				t.Log("no mapped load on this host:", err)
			} else if err != nil {
				t.Fatal(err)
			} else {
				unwrapped("LoadMappedFile")
			}
		})
	}
}
