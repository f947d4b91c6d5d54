// Command bench is the repository's end-to-end benchmark: it builds
// cmd/hlserver from the tree, generates every input from -seed, drives each
// workload through hlserver's HTTP API with two closed-loop connections,
// checks the served answers against its own BFS/Dijkstra, and prints every
// end-to-end metric by name with its unit, its times and rates scaled to a
// reference machine speed measured during the run (probe.go). The last line
// of its output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// It imports nothing from the program under test: it execs the hlserver
// binary and speaks HTTP, so refactors inside the program cannot break the
// tool that measures them. The per-layer numbers come from a separate
// traced run (-trace 1, the bench/trace command), which replays the same
// inputs in-process through each layer's public functions.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload social-read --seed 1
//	bash bench/run.sh -seed 1 -out bench/results/run.json    # all workloads
//	bash bench/run.sh -workload churn-delete -runs 10          # spread check
//	bash bench/run.sh -workload insert-durable -trace 1        # per-layer
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/bench/stat"
	"repro/bench/workload"
)

// Fixed run shape. The measured window comes from -seconds.
const (
	warmup = 2 * time.Second
	setups = 5   // set-ups per run; setup_s reports their median
	checks = 256 // served answers verified per run
)

// metricDef names an end-to-end metric and its unit (see BENCHMARK.json).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"rss_peak_mb", "MiB"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, in order)")
		seed    = flag.Int64("seed", 1, "input seed (1 is the development seed, 2 the held-out one)")
		seconds = flag.Int("seconds", 15, "measured window of each run, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end load")
		runs    = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...; prints median, quartiles and IQR/median")
		out     = flag.String("out", "", "also write every run, the summary and the host fingerprint to this JSON file")
		spans   = flag.String("spans", "", "with -trace 1: write the recorded spans to this JSON file")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *runs, *out, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace, runs int, out, spans string) error {
	if _, err := os.Stat(filepath.Join("cmd", "hlserver")); err != nil {
		return fmt.Errorf("run from the repository root (bash bench/run.sh): %w", err)
	}
	specs := workload.Specs
	if name != "" {
		s, err := workload.Lookup(name)
		if err != nil {
			return err
		}
		specs = []workload.Spec{s}
	}
	if seconds < 1 || runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	build := filepath.Join(root, buildDir)
	if trace == 1 {
		return runTrace(root, build, name, seed, seconds, spans)
	}
	bin := filepath.Join(build, "hlserver")
	if err := goBuild(root, "./cmd/hlserver", bin); err != nil {
		return err
	}

	host := fingerprint(root)
	fmt.Printf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n", host.NProc, host.GOMAXPROCS, host.CPU, host.GoVersion, host.Commit)
	var all []*result
	for _, spec := range specs {
		for i := 0; i < runs; i++ {
			res, err := runWorkload(spec, runConfig{
				server: bin,
				work:   filepath.Join(build, "work", spec.Name),
				seed:   seed + int64(i),
				warmup: warmup,
				window: time.Duration(seconds) * time.Second,
				setups: setups,
				checks: checks,
			})
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", spec.Name, seed+int64(i), err)
			}
			printResult(res)
			all = append(all, res)
		}
	}
	summary := summarize(all)
	if runs > 1 {
		printSummary(summary)
	}
	if out != "" {
		if err := writeResults(out, host, seconds, all, summary); err != nil {
			return err
		}
	}
	line, correct := finalLine(all, summary)
	fmt.Println(line)
	if !correct {
		return fmt.Errorf("wrong answers or lost acked writes (see problems above)")
	}
	return nil
}

// runTrace builds and runs the traced per-layer replay, which imports the
// program's packages and so lives in its own command.
func runTrace(root, build, name string, seed int64, seconds int, spans string) error {
	bin := filepath.Join(build, "bench-trace")
	if err := goBuild(filepath.Join(root, "bench"), "./trace", bin); err != nil {
		return err
	}
	args := []string{"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-work", filepath.Join(build, "trace")}
	if name != "" {
		args = append(args, "-workload", name)
	}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

func printResult(r *result) {
	fmt.Printf("%s seed=%d correct=%v attempted=%d failed=%d checked=%d\n",
		r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.Samples["checked_answers"])
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM %s\n", p)
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-18s %12.4f %-4s (raw %.4f, n=%d)\n", m.name, r.Metrics[m.name], m.unit, r.Raw[m.name], r.Samples[m.name])
	}
	fmt.Printf("  probe: %.0f µs during set-up, %.0f µs during the window (reference %.0f)\n", r.ProbeUS["setup"], r.ProbeUS["window"], probeRefUS)
	fmt.Printf("  reads (not gated): p50 %.4f ms, p90 %.4f ms (n=%d)\n", r.Reads["read_p50_ms"], r.Reads["read_p90_ms"], r.Samples["read_p90_ms"])
	fmt.Printf("  server:")
	for _, k := range sortedKeys(r.Server) {
		if v := r.Server[k]; v != 0 {
			fmt.Printf(" %s=%.4g", k, v)
		}
	}
	fmt.Println()
}

// spread is one metric's distribution over the runs of one workload.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// IQRMedian is (Q3-Q1)/median, the spread the bounds are checked against.
	IQRMedian float64 `json:"iqr_over_median"`
	Runs      int     `json:"runs"`
}

// summarize groups the runs by workload: workload → metric → spread.
func summarize(all []*result) map[string]map[string]spread {
	vals := map[string]map[string][]float64{}
	for _, r := range all {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			vals[r.Workload][k] = append(vals[r.Workload][k], v)
		}
	}
	sum := map[string]map[string]spread{}
	for w, ms := range vals {
		sum[w] = map[string]spread{}
		for k, xs := range ms {
			q1, med, q3 := stat.Quartiles(xs)
			s := spread{Median: med, Q1: q1, Q3: q3, Runs: len(xs)}
			if med != 0 {
				s.IQRMedian = (q3 - q1) / med
			}
			sum[w][k] = s
		}
	}
	return sum
}

func printSummary(sum map[string]map[string]spread) {
	for _, spec := range workload.Specs {
		ms, ok := sum[spec.Name]
		if !ok {
			continue
		}
		fmt.Printf("%s over %d runs: median [q1, q3] iqr/median\n", spec.Name, ms["setup_s"].Runs)
		for _, m := range endToEnd {
			s := ms[m.name]
			fmt.Printf("  %-18s %12.4f [%.4f, %.4f] %.4f\n", m.name, s.Median, s.Q1, s.Q3, s.IQRMedian)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine renders the closing JSON object. With one run of one workload
// the metrics are that run's; otherwise each is "<workload>.<metric>", the
// median over the runs.
func finalLine(all []*result, sum map[string]map[string]spread) (string, bool) {
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range all {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	for _, m := range endToEnd {
		if len(all) == 1 {
			line.Metrics[m.name] = jsonMetric{all[0].Metrics[m.name], m.unit}
			continue
		}
		for w, ms := range sum {
			line.Metrics[w+"."+m.name] = jsonMetric{ms[m.name].Median, m.unit}
		}
	}
	b, _ := json.Marshal(line) // plain maps and numbers: cannot fail
	return string(b), line.Correct
}

// hostInfo fingerprints where the numbers were taken.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint(root string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40")
	cmd.Dir = root
	// A checkout that is not a repository must not send git looking above it.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if b, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

func writeResults(path string, host hostInfo, seconds int, all []*result, sum map[string]map[string]spread) error {
	b, err := json.MarshalIndent(struct {
		Host    hostInfo                     `json:"host"`
		Seconds int                          `json:"seconds"`
		Warmup  float64                      `json:"warmup_seconds"`
		Runs    []*result                    `json:"runs"`
		Summary map[string]map[string]spread `json:"summary"`
	}{host, seconds, warmup.Seconds(), all, sum}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
