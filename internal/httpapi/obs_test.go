package httpapi

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	dynhl "repro"
	"repro/internal/testutil"
)

// scrape fetches /metrics and returns the body plus the Content-Type.
func scrape(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// parseExposition validates every line of a Prometheus text exposition and
// returns the samples (full series name with labels → value) and the
// families declared by # TYPE lines (family name → type).
func parseExposition(t *testing.T, body string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = make(map[string]float64)
	types = make(map[string]string)
	helped := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# HELP ") {
			fields := strings.SplitN(strings.TrimPrefix(text, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[0] == "" || fields[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", line, text)
			}
			helped[fields[0]] = true
			continue
		}
		if strings.HasPrefix(text, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(text, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", line, text)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", line, fields[1])
			}
			types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(text, "#") {
			t.Fatalf("line %d: unknown comment form: %q", line, text)
		}
		// A sample: name{labels} value, with the value after the last space.
		cut := strings.LastIndexByte(text, ' ')
		if cut <= 0 {
			t.Fatalf("line %d: malformed sample: %q", line, text)
		}
		name, raw := text[:cut], text[cut+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			if raw != "+Inf" {
				t.Fatalf("line %d: bad sample value %q: %v", line, raw, err)
			}
		}
		if _, dup := samples[name]; dup {
			t.Fatalf("line %d: duplicate series %q", line, name)
		}
		samples[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Every sample's family must carry both TYPE and HELP. Histogram
	// samples resolve through their _bucket/_sum/_count suffix.
	family := func(name string) string {
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(base, suf); ok && types[trimmed] == "histogram" {
				return trimmed
			}
		}
		return base
	}
	for name := range samples {
		fam := family(name)
		if types[fam] == "" {
			t.Errorf("series %q has no # TYPE for family %q", name, fam)
		}
		if !helped[fam] {
			t.Errorf("series %q has no # HELP for family %q", name, fam)
		}
	}
	return samples, types
}

// TestMetricsExposition drives queries and an update through the API, then
// checks /metrics parses cleanly and carries the query histogram and all
// five pipeline-stage histograms with nonzero counts.
func TestMetricsExposition(t *testing.T) {
	ts := newTestServer(t)
	for range 3 {
		getJSON(t, ts.URL+"/distance?u=0&v=1", http.StatusOK, nil)
	}
	postJSON(t, ts.URL+"/distances", `{"pairs":[{"u":0,"v":1},{"u":1,"v":2}]}`, http.StatusOK, nil)
	postJSON(t, ts.URL+"/updates", `{"ops":[{"op":"insert_vertex","arcs":[{"to":0},{"to":1}]}]}`, http.StatusOK, nil)

	body, ctype := scrape(t, ts.URL)
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("Content-Type %q, want Prometheus text 0.0.4", ctype)
	}
	samples, types := parseExposition(t, body)

	if v := samples[`dynhl_query_seconds_count{variant="undirected"}`]; v < 3 {
		t.Fatalf("query histogram count %v, want >= 3\n%s", v, body)
	}
	if v := samples[`dynhl_query_batch_seconds_count{variant="undirected"}`]; v < 1 {
		t.Fatalf("batch histogram count %v, want >= 1", v)
	}
	for _, stage := range []string{"coalesce_wait", "repair", "wal_commit", "publish"} {
		name := fmt.Sprintf(`dynhl_apply_stage_seconds_count{stage=%q}`, stage)
		if v, ok := samples[name]; !ok {
			t.Errorf("missing pipeline stage series %s", name)
		} else if v < 1 {
			t.Errorf("stage %s count %v, want >= 1", stage, v)
		}
	}
	if samples["dynhl_epoch"] != 1 {
		t.Fatalf("dynhl_epoch = %v, want 1 after one update", samples["dynhl_epoch"])
	}
	if types["go_goroutines"] != "gauge" || samples["go_goroutines"] < 1 {
		t.Fatal("runtime registry (go_goroutines) missing from /metrics")
	}
}

// TestMetricsMonotonicCounters scrapes twice with traffic in between:
// counters and histogram counts must not go backwards, and must advance
// where traffic hit them.
func TestMetricsMonotonicCounters(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/distance?u=0&v=1", http.StatusOK, nil)
	first, _ := scrape(t, ts.URL)
	before, _ := parseExposition(t, first)

	for range 5 {
		getJSON(t, ts.URL+"/distance?u=1&v=2", http.StatusOK, nil)
	}
	second, _ := scrape(t, ts.URL)
	after, types := parseExposition(t, second)

	for name, v := range before {
		fam := name
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		isCount := false
		for _, suf := range []string{"_bucket", "_count"} {
			if trimmed, ok := strings.CutSuffix(fam, suf); ok && types[trimmed] == "histogram" {
				isCount = true
			}
		}
		if types[fam] != "counter" && !isCount {
			continue // gauges may move either way
		}
		if now, ok := after[name]; ok && now < v {
			t.Errorf("counter %s went backwards: %v -> %v", name, v, now)
		}
	}
	qc := `dynhl_query_seconds_count{variant="undirected"}`
	if after[qc] < before[qc]+5 {
		t.Fatalf("query count %v -> %v, want +5", before[qc], after[qc])
	}
}

// TestAccessLog checks the middleware emits one structured line per
// request with the method, path, status and served epoch.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	g := testutil.RandomConnectedGraph(30, 60, 4)
	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(AccessLog(logf, New(idx).Handler()))
	t.Cleanup(ts.Close)

	getJSON(t, ts.URL+"/distance?u=0&v=1", http.StatusOK, nil)
	getJSON(t, ts.URL+"/distance?u=0", http.StatusBadRequest, nil)

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("access log: %d lines, want 2: %q", len(lines), lines)
	}
	for _, want := range []string{"method=GET", "path=/distance", "status=200", "epoch=0", "latency="} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("access line %q missing %q", lines[0], want)
		}
	}
	if !strings.Contains(lines[1], "status=400") {
		t.Errorf("error line %q missing status=400", lines[1])
	}
}

// TestStatsAndHealthServerInfo checks the satellite enrichment: both
// endpoints carry uptime, goroutines and heap bytes.
func TestStatsAndHealthServerInfo(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/stats", "/healthz"} {
		var resp struct {
			Server struct {
				UptimeSeconds float64 `json:"uptime_seconds"`
				Goroutines    int     `json:"goroutines"`
				HeapBytes     uint64  `json:"heap_bytes"`
			} `json:"server"`
		}
		getJSON(t, ts.URL+path, http.StatusOK, &resp)
		if resp.Server.UptimeSeconds < 0 {
			t.Errorf("%s: negative uptime %v", path, resp.Server.UptimeSeconds)
		}
		if resp.Server.Goroutines < 1 || resp.Server.HeapBytes == 0 {
			t.Errorf("%s: runtime basics missing: %+v", path, resp.Server)
		}
	}
}
