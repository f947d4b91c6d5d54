// Command trace is the benchmark's traced run: it regenerates a workload's
// inputs from -seed and replays them in-process, calling each layer's
// public entry point in turn, outermost first, and recording one span per
// call. A layer's self time is its span minus the spans of the layer
// directly beneath it for the same input — decomposition by re-execution:
// each layer runs the input again rather than being timed from inside.
//
// Reads go httpapi Handler().ServeHTTP → Store.Snapshot().Query → the Eq. 2
// bound (hcl or whcl UpperBound) → the bounded search (bfs or wgraph
// Sparsified). Writes go Store.ApplyCtx → graph Fork → label Fork → repair
// (inchl or whcl, one span per landmark task) → label Pack, and the WAL
// layer appends the same record to its own log with fsync. Half of
// -seconds replays the workload's reads, half its update stream; a
// read-only workload replays the update stream its writer would send, so
// every layer is measured on every workload's inputs.
//
// Run it through the benchmark from the repository root:
//
//	bash bench/run.sh -workload insert-durable -trace 1
//
// The last output line is {"correct", "attempted", "failed", "metrics"}
// with the per-layer metrics of BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	dynhl "repro"
	"repro/bench/stat"
	"repro/bench/workload"
	"repro/internal/httpapi"
	"repro/internal/wal"
)

// metricDef names a per-layer metric and its unit (see BENCHMARK.json).
type metricDef struct{ name, unit string }

var perLayer = []metricDef{
	{"graph.read_ms", "ms"},
	{"label.build_ms", "ms"},
	{"httpapi.serve_us", "us"},
	{"httpapi.self_us", "us"},
	{"dynhl.query_us", "us"},
	{"dynhl.self_us", "us"},
	{"label.bound_ns", "ns"},
	{"label.entries", "count"},
	{"label.bound_exact_frac", "fraction"},
	{"search.time_us", "us"},
	{"search.touched", "count"},
	{"graph.fork_ms", "ms"},
	{"label.fork_ms", "ms"},
	{"repair.ms", "ms"},
	{"repair.task_busy_ms", "ms"},
	{"repair.skip_frac", "fraction"},
	{"repair.affected", "count"},
	{"fanout.efficiency", "fraction"},
	{"label.pack_ms", "ms"},
	{"label.bytes_per_vertex", "B"},
	{"dynhl.apply_ms", "ms"},
	{"dynhl.apply_self_ms", "ms"},
	{"wal.commit_ms", "ms"},
	{"wal.bytes_per_op", "B"},
	{"trace.span_ns", "ns"},
}

// finalChecks is how many pairs are checked against ground truth after
// the update replay.
const finalChecks = 64

func main() {
	var (
		name    = flag.String("workload", "", "workload to trace (default: all four, in order)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "replay time per workload, split between reads and updates")
		work    = flag.String("work", filepath.Join(".bench_build", "trace"), "scratch directory")
		spans   = flag.String("spans", "", "write the spans to this JSON file (default: <work>/spans.json)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *work, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

// outcome is one workload's traced replay.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
}

func run(name string, seed int64, seconds int, work, spansPath string) error {
	specs := workload.Specs
	if name != "" {
		s, err := workload.Lookup(name)
		if err != nil {
			return err
		}
		specs = []workload.Spec{s}
	}
	if spansPath == "" {
		spansPath = filepath.Join(work, "spans.json")
	}
	if err := os.MkdirAll(work, 0o777); err != nil {
		return err
	}
	allSpans := map[string][]span{}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, spec := range specs {
		tr := newTracer()
		out, err := traceWorkload(spec, seed, time.Duration(seconds)*time.Second, filepath.Join(work, spec.Name), tr)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		allSpans[spec.Name] = tr.spans
		fmt.Printf("%s seed=%d attempted=%d failed=%d spans=%d\n", spec.Name, seed, out.attempted, out.failed, len(tr.spans))
		for _, p := range out.problems {
			fmt.Printf("  PROBLEM %s\n", p)
		}
		line.Correct = line.Correct && len(out.problems) == 0
		line.Attempted += out.attempted
		line.Failed += out.failed
		for _, m := range perLayer {
			fmt.Printf("  %-24s %14.4f %s\n", m.name, out.metrics[m.name], m.unit)
			key := m.name
			if len(specs) > 1 {
				key = spec.Name + "." + m.name
			}
			line.Metrics[key] = jsonMetric{out.metrics[m.name], m.unit}
		}
	}
	b, err := json.Marshal(allSpans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(spansPath, b, 0o666); err != nil {
		return err
	}
	b, err = json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("wrong answers (see problems above)")
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// traceWorkload sets the workload's inputs up in-process and replays them.
func traceWorkload(spec workload.Spec, seed int64, budget time.Duration, work string, tr *tracer) (*outcome, error) {
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o777); err != nil {
		return nil, err
	}
	ref := spec.Graph.Build(seed)
	path := filepath.Join(work, "graph.txt")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := ref.WriteEdgeList(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	out := &outcome{metrics: map[string]float64{}}
	st, ch, err := setUp(spec, path, tr, out)
	if err != nil {
		return nil, err
	}
	out.metrics["trace.span_ns"] = float64(spanCost())

	reader := 0 // the first reading connection's pair stream
	if spec.Writer {
		reader = 1
	}
	pairs := workload.NewPairs(seed, reader, ref.NumVertices())
	if err := replayReads(spec, st, ch, pairs, budget/2, tr, out); err != nil {
		return nil, err
	}
	ups := spec.Updates(ref, seed)
	if err := replayWrites(st, ch, ups, budget/2, filepath.Join(work, "wal"), tr, out); err != nil {
		return nil, err
	}

	// The Store, the layer stack and the benchmark's own search must agree
	// on the graph the whole update stream produced.
	truth := workload.NewSearcher(ups.Graph())
	check := workload.NewPairs(seed, 99, ref.NumVertices())
	view := st.Snapshot()
	for i := 0; i < finalChecks; i++ {
		u, v := check.Next()
		want := truth.Dist(u, v)
		if got, layered := uint32(view.Query(u, v)), ch.query(u, v); got != want || layered != want {
			out.problems = append(out.problems, fmt.Sprintf("after the updates d(%d,%d): store %d, layers %d, true %d", u, v, got, layered, want))
		}
	}
	return out, nil
}

// setUp parses the edge list and builds the labelling twice over the same
// graph: once as the Store hlserver would serve, once as the bare layer
// stack (with the Store's landmarks) that the trace drives directly.
func setUp(spec workload.Spec, path string, tr *tracer, out *outcome) (*dynhl.Store, chain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	opt := dynhl.Options{Parallel: true}
	id := tr.begin("graph.read", -1, -1)
	if spec.Weighted() {
		g, err := dynhl.ReadWeightedGraph(f)
		out.metrics["graph.read_ms"] = ms(tr.end(id))
		if err != nil {
			return nil, nil, err
		}
		x, err := dynhl.BuildWeighted(g, opt)
		if err != nil {
			return nil, nil, err
		}
		id = tr.begin("label.build", -1, -1)
		ch, err := newWeighted(g, x.Landmarks())
		out.metrics["label.build_ms"] = ms(tr.end(id))
		return dynhl.NewStore(x), ch, err
	}
	g, err := dynhl.ReadGraph(f)
	out.metrics["graph.read_ms"] = ms(tr.end(id))
	if err != nil {
		return nil, nil, err
	}
	x, err := dynhl.Build(g, opt)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("label.build", -1, -1)
	ch, err := newPlain(g, x.Landmarks())
	out.metrics["label.build_ms"] = ms(tr.end(id))
	return dynhl.NewStore(x), ch, err
}

// replayReads sends the workload's read requests through every read layer
// until the budget is spent.
func replayReads(spec workload.Spec, st *dynhl.Store, ch chain, pairs *workload.Pairs, budget time.Duration, tr *tracer, out *outcome) error {
	h := httpapi.New(st).Handler()
	var serve, httpSelf, query, self, bound, search []float64
	var entries, touched, exact, npairs int
	deadline := time.Now().Add(budget)
	for req := 0; time.Now().Before(deadline); req++ {
		out.attempted++
		ps := make([][2]uint32, max(spec.BatchPairs, 1))
		for i := range ps {
			ps[i][0], ps[i][1] = pairs.Next()
		}
		newReq := func() *http.Request {
			if spec.BatchPairs == 0 {
				return httptest.NewRequest("GET", fmt.Sprintf("/distance?u=%d&v=%d", ps[0][0], ps[0][1]), nil)
			}
			var b strings.Builder
			b.WriteString(`{"pairs":[`)
			for i, p := range ps {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `{"u":%d,"v":%d}`, p[0], p[1])
			}
			b.WriteString("]}")
			return httptest.NewRequest("POST", "/distances", strings.NewReader(b.String()))
		}
		// One untimed pass through every layer first, so each timed call
		// below finds the same warm caches: re-executing a layer must not
		// look cheaper only because the layer above it just ran.
		h.ServeHTTP(httptest.NewRecorder(), newReq())
		for _, p := range ps {
			st.Snapshot().Query(p[0], p[1])
			if top, _, ok := ch.bound(p[0], p[1]); ok {
				ch.search(p[0], p[1], top)
			}
		}

		w := httptest.NewRecorder()
		r := newReq()
		sid := tr.begin("httpapi.serve", -1, req)
		h.ServeHTTP(w, r)
		sd := tr.end(sid)
		served, err := workload.ParseDistances(w.Body.Bytes(), spec.BatchPairs > 0)
		if w.Code != http.StatusOK {
			err = fmt.Errorf("httpapi answered %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
		}
		if err != nil {
			out.failed++
			out.problems = append(out.problems, err.Error())
			continue
		}

		view := st.Snapshot()
		var queries time.Duration
		for i, p := range ps {
			u, v := p[0], p[1]
			qid := tr.begin("dynhl.query", sid, req)
			d := uint32(view.Query(u, v))
			qd := tr.end(qid)
			bid := tr.begin("label.bound", qid, req)
			top, n, needSearch := ch.bound(u, v)
			bd := tr.end(bid)
			final, sdur := top, time.Duration(0)
			if needSearch {
				xid := tr.begin("search", qid, req)
				sp, t := ch.search(u, v, top)
				sdur = tr.end(xid)
				search = append(search, us(sdur))
				touched += t
				final = min(final, sp)
			}
			if final == top {
				exact++
			}
			if served[i] != d || d != final {
				out.problems = append(out.problems, fmt.Sprintf("d(%d,%d): served %d, store %d, layers %d", u, v, served[i], d, final))
			}
			queries += qd
			query = append(query, us(qd))
			bound = append(bound, float64(bd.Nanoseconds()))
			self = append(self, us(qd-bd-sdur))
			entries += n
			npairs++
		}
		serve = append(serve, us(sd))
		httpSelf = append(httpSelf, us(sd-queries))
	}
	for _, p := range []struct {
		name string
		xs   []float64
	}{
		{"httpapi.serve_us", serve}, {"httpapi.self_us", httpSelf},
		{"dynhl.query_us", query}, {"dynhl.self_us", self},
		{"label.bound_ns", bound}, {"search.time_us", search},
	} {
		v, err := stat.Percentile(stat.Sorted(p.xs), 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		out.metrics[p.name] = v
	}
	out.metrics["label.entries"] = float64(entries) / float64(npairs)
	out.metrics["label.bound_exact_frac"] = float64(exact) / float64(npairs)
	out.metrics["search.touched"] = float64(touched) / float64(len(search))
	return nil
}

// replayWrites applies the workload's update stream through the Store and,
// op by op, through each write layer, until the budget is spent.
func replayWrites(st *dynhl.Store, ch chain, ups *workload.Updates, budget time.Duration, walDir string, tr *tracer, out *outcome) error {
	sink, err := newWALSink(walDir)
	if err != nil {
		return err
	}
	defer sink.Close()
	var apply, applySelf, gfork, lfork, repair, pack, commit, busyMs []float64
	var busyTotal, widthTotal float64
	var landmarks, skipped, affected int
	workers := runtime.GOMAXPROCS(0)
	deadline := time.Now().Add(budget)
	for req := 0; time.Now().Before(deadline); req++ {
		out.attempted++
		op := ups.Next()
		dop := dynhl.InsertEdgeOp(op.U, op.V, op.W)
		if op.Kind == workload.DeleteEdge {
			dop = dynhl.DeleteEdgeOp(op.U, op.V)
		}
		aid := tr.begin("dynhl.apply", -1, req)
		_, err := st.ApplyCtx(context.Background(), []dynhl.Op{dop})
		ad := tr.end(aid)
		if err != nil {
			out.failed++
			return fmt.Errorf("apply %v: %w", op, err)
		}

		id := tr.begin("graph.fork", aid, req)
		ch.forkGraph()
		gd := tr.end(id)
		id = tr.begin("label.fork", aid, req)
		ch.forkLabels()
		ld := tr.end(id)
		var mu sync.Mutex
		var busy time.Duration
		tasks := 0
		rid := tr.begin("repair", aid, req)
		rs, err := ch.repair(op, func(d time.Duration) {
			tr.task(d, rid, req)
			mu.Lock()
			busy += d
			tasks++
			mu.Unlock()
		})
		rd := tr.end(rid)
		if err != nil {
			out.failed++
			return fmt.Errorf("repair %v: %w", op, err)
		}
		id = tr.begin("label.pack", aid, req)
		ch.pack()
		pd := tr.end(id)
		// The in-process Store is not durable (weighted stores cannot be),
		// so the WAL layer appends the same record to its own log.
		id = tr.begin("wal.commit", -1, req)
		err = sink.Commit(uint64(req+1), []dynhl.Op{dop}, nil)
		wd := tr.end(id)
		if err != nil {
			out.failed++
			return fmt.Errorf("wal commit %v: %w", op, err)
		}

		apply = append(apply, ms(ad))
		applySelf = append(applySelf, ms(ad-gd-ld-rd-pd))
		gfork = append(gfork, ms(gd))
		lfork = append(lfork, ms(ld))
		repair = append(repair, ms(rd))
		pack = append(pack, ms(pd))
		commit = append(commit, ms(wd))
		busyMs = append(busyMs, ms(busy))
		busyTotal += busy.Seconds()
		widthTotal += rd.Seconds() * float64(min(workers, max(tasks, 1)))
		landmarks += rs.landmarks
		skipped += rs.skipped
		affected += rs.affected
	}
	if len(apply) == 0 {
		return fmt.Errorf("no update finished within %v", budget)
	}
	for name, xs := range map[string][]float64{
		"dynhl.apply_ms": apply, "dynhl.apply_self_ms": applySelf,
		"graph.fork_ms": gfork, "label.fork_ms": lfork, "repair.ms": repair,
		"label.pack_ms": pack, "wal.commit_ms": commit, "repair.task_busy_ms": busyMs,
	} {
		// Means, not medians, so the write path's parts add up to its whole.
		out.metrics[name] = stat.Mean(xs)
	}
	out.metrics["repair.skip_frac"] = float64(skipped) / float64(landmarks)
	out.metrics["repair.affected"] = float64(affected) / float64(len(apply))
	out.metrics["fanout.efficiency"] = busyTotal / widthTotal
	out.metrics["label.bytes_per_vertex"] = ch.bytesPerVertex()
	ds := sink.DurabilityStats()
	out.metrics["wal.bytes_per_op"] = float64(ds.Bytes) / float64(ds.Records)
	return nil
}

// newWALSink opens a write-ahead log, fsync on every append, to time the
// WAL layer on the workload's own update records. Its store (a two-vertex
// graph) only anchors the log; it never receives the records.
func newWALSink(dir string) (*wal.Durable, error) {
	g := dynhl.NewGraph(2)
	g.AddVertex()
	g.AddVertex()
	if _, err := g.AddEdge(0, 1); err != nil {
		return nil, err
	}
	x, err := dynhl.Build(g, dynhl.Options{Landmarks: 1})
	if err != nil {
		return nil, err
	}
	return wal.Create(dir, x, wal.Options{Fsync: wal.SyncAlways, Logf: func(string, ...any) {}})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
