package dynhl

import (
	"log"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/obs"
)

// This file is the store's observability surface: every Store owns an
// obs.Registry with per-variant query latency histograms, the five
// write-pipeline stage timings, and the arena gauges, plus a bounded
// threshold-gated slow-query log. Recording is atomic-add only — the
// zero-allocation contract of the packed read path (alloc_test.go, CI
// alloc-gate) holds with instrumentation permanently on.

// slowLogMinInterval bounds the slow-query log to at most one line per
// interval; queries over threshold beyond that budget are counted in
// dynhl_slow_queries_suppressed_total instead of logged, so a latency
// storm cannot turn the log itself into the bottleneck.
const slowLogMinInterval = 100 * time.Millisecond

// variantOf names the wrapped oracle variant for the variant= label.
func variantOf(o variant) string {
	switch o.(type) {
	case *DirectedIndex:
		return "directed"
	case *WeightedIndex:
		return "weighted"
	}
	return "undirected"
}

// storeMetrics is one Store's metric set. All fields are registered once
// at store construction; the hot paths touch only the atomics behind
// them.
type storeMetrics struct {
	reg     *obs.Registry
	variant string

	// Read path.
	query      *obs.Histogram // dynhl_query_seconds
	batch      *obs.Histogram // dynhl_query_batch_seconds
	batchPairs *obs.Histogram // dynhl_query_batch_pairs
	pins       *obs.Counter   // dynhl_snapshot_pins_total

	// Repair engine.
	repairLandmark *obs.Histogram // dynhl_repair_landmark_seconds

	// Write pipeline stages (store_queue.go).
	stageWait    *obs.Histogram // coalesce wait: enqueue -> claimed
	stageRepair  *obs.Histogram // validation pre-pass, fork + repair of the live callers
	stageCommit  *obs.Histogram // durability hook: WAL append + fsync
	stageWALWait *obs.Histogram // publish waiting on the append after repair
	stagePublish *obs.Histogram // snapshot swap + waiter wakeup
	groupCallers *obs.Histogram // dynhl_apply_group_callers
	groupOps     *obs.Histogram // dynhl_apply_group_ops

	groups     *obs.Counter // dynhl_apply_groups_total
	callers    *obs.Counter // dynhl_apply_callers_total
	opsApplied *obs.Counter // dynhl_apply_ops_total
	rejected   *obs.Counter // dynhl_apply_rejected_total
	abandoned  *obs.Counter // dynhl_apply_abandoned_total
	commitErrs *obs.Counter // dynhl_apply_commit_errors_total

	// Slow-query log.
	slowTotal      *obs.Counter
	slowSuppressed *obs.Counter
	slowNanos      atomic.Int64 // threshold in nanoseconds; 0 disables
	slowLast       atomic.Int64 // unix nanos of the last emitted line
	slowLogf       atomic.Value // func(format string, args ...any)
}

func newStoreMetrics(s *Store, variant string) *storeMetrics {
	r := obs.NewRegistry()
	vl := obs.Label{Name: "variant", Value: variant}
	m := &storeMetrics{
		reg:     r,
		variant: variant,

		query: r.Duration("dynhl_query_seconds",
			"Single-pair query latency against a published view.", vl),
		batch: r.Duration("dynhl_query_batch_seconds",
			"Batch query latency (whole batch, one epoch).", vl),
		batchPairs: r.Values("dynhl_query_batch_pairs",
			"Pairs per batch query.", vl),
		pins: r.Counter("dynhl_snapshot_pins_total",
			"Views handed out by Snapshot (epoch pins).", vl),

		repairLandmark: r.Duration("dynhl_repair_landmark_seconds",
			"Per-landmark (per-pass) repair task latency inside the parallel repair engine.", vl),

		stageWait: r.Duration("dynhl_apply_stage_seconds",
			"Write-pipeline stage latency.", obs.Label{Name: "stage", Value: "coalesce_wait"}),
		stageRepair: r.Duration("dynhl_apply_stage_seconds",
			"Write-pipeline stage latency.", obs.Label{Name: "stage", Value: "repair"}),
		stageCommit: r.Duration("dynhl_apply_stage_seconds",
			"Write-pipeline stage latency.", obs.Label{Name: "stage", Value: "wal_commit"}),
		stageWALWait: r.Duration("dynhl_apply_stage_seconds",
			"Write-pipeline stage latency.", obs.Label{Name: "stage", Value: "wal_wait"}),
		stagePublish: r.Duration("dynhl_apply_stage_seconds",
			"Write-pipeline stage latency.", obs.Label{Name: "stage", Value: "publish"}),
		groupCallers: r.Values("dynhl_apply_group_callers",
			"Callers coalesced per commit group."),
		groupOps: r.Values("dynhl_apply_group_ops",
			"Ops combined per commit group."),

		groups: r.Counter("dynhl_apply_groups_total",
			"Commit groups sent down the pipeline."),
		callers: r.Counter("dynhl_apply_callers_total",
			"Callers whose ops entered a commit group."),
		opsApplied: r.Counter("dynhl_apply_ops_total",
			"Ops repaired into commit groups."),
		rejected: r.Counter("dynhl_apply_rejected_total",
			"Callers rejected by per-segment validation."),
		abandoned: r.Counter("dynhl_apply_abandoned_total",
			"Callers that cancelled before the committer claimed them."),
		commitErrs: r.Counter("dynhl_apply_commit_errors_total",
			"Commit groups refused by the durability layer."),

		slowTotal: r.Counter("dynhl_slow_queries_total",
			"Queries over the slow-query threshold.", vl),
		slowSuppressed: r.Counter("dynhl_slow_queries_suppressed_total",
			"Slow queries not logged because of the rate bound.", vl),
	}
	r.GaugeFunc("dynhl_epoch", "Current published epoch.",
		func() float64 { return float64(s.Epoch()) })
	r.GaugeFunc("dynhl_repair_workers", "Resolved per-landmark repair fan-out (0: no repair engine).",
		func() float64 { return float64(s.RepairWorkers()) })
	r.GaugeFunc("dynhl_arena_mapped_bytes", "Bytes of live mmap'd arenas (process-wide).",
		func() float64 { return float64(arena.TotalMapped()) })
	r.GaugeFunc("dynhl_arena_mappings", "Live mmap'd arenas (process-wide).",
		func() float64 { return float64(arena.Mappings()) })
	r.CounterFunc("dynhl_arena_maps_total", "Arenas ever mapped (process-wide).",
		arena.MapsTotal)
	r.CounterFunc("dynhl_arena_unmaps_total", "Arenas ever unmapped (process-wide).",
		arena.UnmapsTotal)
	r.CounterFunc("dynhl_arena_mapped_bytes_total", "Bytes ever mapped (process-wide).",
		arena.MappedBytesTotal)
	return m
}

// queryDone records one single-pair query and feeds the slow-query log.
// Called on the hot path: the fast case is one time.Since plus two
// atomic adds and one atomic load.
func (m *storeMetrics) queryDone(epoch uint64, u, v uint32, d Dist, start time.Time) {
	el := time.Since(start)
	m.query.ObserveDuration(el)
	if thr := m.slowNanos.Load(); thr > 0 && int64(el) >= thr {
		m.slowQuery(epoch, u, v, d, el)
	}
}

// slowQuery is the cold path behind queryDone: count every over-threshold
// query, log at most one structured line per slowLogMinInterval.
func (m *storeMetrics) slowQuery(epoch uint64, u, v uint32, d Dist, el time.Duration) {
	m.slowTotal.Inc()
	now := time.Now().UnixNano()
	last := m.slowLast.Load()
	if now-last < int64(slowLogMinInterval) || !m.slowLast.CompareAndSwap(last, now) {
		m.slowSuppressed.Inc()
		return
	}
	logf, _ := m.slowLogf.Load().(func(string, ...any))
	if logf == nil {
		logf = log.Printf
	}
	logf("slow query: variant=%s epoch=%d u=%d v=%d dist=%v latency=%s",
		m.variant, epoch, u, v, d, el)
}

// batchDone records one batch query.
func (m *storeMetrics) batchDone(pairs int, start time.Time) {
	m.batch.Since(start)
	m.batchPairs.Observe(uint64(pairs))
}

// SetSlowQueryLog configures the slow-query log: queries slower than
// threshold emit one structured line (epoch, variant, endpoints,
// distance, latency) through logf, bounded to one line per 100ms —
// excess slow queries are only counted. threshold <= 0 disables logging
// (the default); a nil logf keeps the previous sink (initially
// log.Printf).
func (s *Store) SetSlowQueryLog(threshold time.Duration, logf func(format string, args ...any)) {
	if logf != nil {
		s.metrics.slowLogf.Store(logf)
	}
	if threshold < 0 {
		threshold = 0
	}
	s.metrics.slowNanos.Store(int64(threshold))
}

// metricsSource is implemented by attached layers (internal/wal.Durable,
// internal/repl.Leader and Follower) that carry their own registry.
type metricsSource interface {
	MetricsRegistry() *obs.Registry
}

// MetricsRegistries returns every metrics registry this store speaks
// for: its own (query, pipeline, arena) plus the registries of the
// attached durability and replication layers. The HTTP /metrics
// endpoint renders them back to back; the set grows as layers attach.
func (s *Store) MetricsRegistries() []*obs.Registry {
	regs := []*obs.Registry{s.metrics.reg}
	if d := s.durability(); d != nil {
		if ms, ok := d.(metricsSource); ok {
			regs = append(regs, ms.MetricsRegistry())
		}
	}
	if r := s.replication(); r != nil {
		if ms, ok := r.(metricsSource); ok {
			regs = append(regs, ms.MetricsRegistry())
		}
	}
	return regs
}
