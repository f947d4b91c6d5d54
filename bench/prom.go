package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: series (name plus label
// set, exactly as printed) to value.
type scrape map[string]float64

// parseProm reads the text exposition format, skipping comments.
func parseProm(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// sum adds every series called name whose label set contains match ("" for
// any), so a histogram's _sum across variants reads as one number.
func (s scrape) sum(name, match string) float64 {
	var t float64
	for k, v := range s {
		series, labels, _ := strings.Cut(k, "{")
		if series == name && strings.Contains(labels, match) {
			t += v
		}
	}
	return t
}

// promDelta differences two scrapes taken around a measured window.
type promDelta struct{ before, after scrape }

// counter returns how much a counter (or a histogram's _sum/_count) grew.
func (d promDelta) counter(name, match string) float64 {
	return d.after.sum(name, match) - d.before.sum(name, match)
}

// mean returns the mean observation of histogram name over the window, or
// 0 when nothing was observed.
func (d promDelta) mean(name, match string) float64 {
	n := d.counter(name+"_count", match)
	if n == 0 {
		return 0
	}
	return d.counter(name+"_sum", match) / n
}

// gauge returns a gauge's value at the end of the window.
func (d promDelta) gauge(name string) float64 { return d.after.sum(name, "") }

// serverLayers turns the window's /metrics delta into the server-side
// per-layer numbers of hlserver's always-on series.
func serverLayers(d promDelta, window float64) map[string]float64 {
	m := map[string]float64{
		"server.query_us":           d.mean("dynhl_query_seconds", "") * 1e6,
		"server.batch_us":           d.mean("dynhl_query_batch_seconds", "") * 1e6,
		"server.group_callers":      d.mean("dynhl_apply_group_callers", ""),
		"server.repair_task_ms":     d.mean("dynhl_repair_landmark_seconds", "") * 1e3,
		"wal.append_ms":             d.mean("dynhl_wal_append_seconds", "") * 1e3,
		"wal.fsync_ms":              d.mean("dynhl_wal_fsync_seconds", "") * 1e3,
		"wal.checkpoint_ms":         d.mean("dynhl_wal_checkpoint_seconds", "") * 1e3,
		"wal.checkpoints":           d.counter("dynhl_wal_checkpoints_total", ""),
		"runtime.gc_cycles_per_s":   d.counter("go_gc_cycles_total", "") / window,
		"runtime.gc_pause_ms_per_s": d.counter("go_gc_pause_seconds_total", "") * 1e3 / window,
		"runtime.heap_mb":           d.gauge("go_heap_alloc_bytes") / (1 << 20),
		"process.major_faults":      d.counter("process_major_page_faults_total", ""),
		"arena.mapped_mb":           d.gauge("dynhl_arena_mapped_bytes") / (1 << 20),
	}
	if ops := d.counter("dynhl_apply_ops_total", ""); ops > 0 {
		m["wal.bytes_per_op"] = d.counter("dynhl_wal_appended_bytes_total", "") / ops
		m["wal.fsyncs_per_op"] = d.counter("dynhl_wal_fsyncs_total", "") / ops
	}
	for _, st := range []string{"coalesce_wait", "repair", "pack", "wal_commit", "publish"} {
		m["server.stage."+st+"_ms"] = d.mean("dynhl_apply_stage_seconds", `stage="`+st+`"`) * 1e3
	}
	return m
}
