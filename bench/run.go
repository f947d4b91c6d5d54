package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/bench/stat"
	"repro/bench/workload"
)

// runConfig is how one workload run is carried out.
type runConfig struct {
	server string // hlserver binary
	work   string // the run's scratch directory, emptied first
	seed   int64
	warmup time.Duration
	window time.Duration
	setups int // set-ups timed per run; setup_s is their median
	checks int // served answers checked against the reference
}

// result is one workload run.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Metrics are the end-to-end metrics scaled to the reference machine
	// (see probe.go): Raw times multiplied by probeRefUS over the probe's
	// CPU time in the same phase, rates divided by it.
	Metrics map[string]float64 `json:"metrics"`
	Raw     map[string]float64 `json:"raw"`
	// ProbeUS is the probe's median CPU time per work unit during the
	// set-ups and during the window.
	ProbeUS map[string]float64 `json:"probe_us"`
	// Reads is the latency of every distance read, the reader's under the
	// writes of a write workload. It is reported, not gated: on a shared
	// 2-vCPU host a reader's latency next to a busy writer spreads more
	// from run to run than any regression bound could tolerate.
	Reads map[string]float64 `json:"reads"`
	// Samples counts the observations behind each metric.
	Samples map[string]int `json:"samples"`
	// Server holds per-layer numbers from the server's own /metrics,
	// differenced across the measured window.
	Server map[string]float64 `json:"server"`
}

// acked is an update batch the server acknowledged, with the epoch it
// published.
type acked struct {
	ops   []workload.Op
	epoch uint64
}

// runWorkload runs one workload end to end: generate the inputs, set the
// server up, drive the closed-loop load, then check the answers.
func runWorkload(spec workload.Spec, cfg runConfig) (*result, error) {
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o777); err != nil {
		return nil, err
	}
	g := spec.Graph.Build(cfg.seed)
	graphPath := filepath.Join(cfg.work, "graph.txt")
	if err := writeGraph(graphPath, g); err != nil {
		return nil, err
	}
	res := &result{Workload: spec.Name, Seed: cfg.seed, Metrics: map[string]float64{}, Raw: map[string]float64{}, Reads: map[string]float64{}, Samples: map[string]int{}}

	var log []acked // every acknowledged batch, in epoch order
	base := g       // the graph the load's update stream starts from
	var crashed string
	if spec.PrepInserts > 0 {
		var prep []workload.Op
		prep, base = spec.Prep(g, cfg.seed)
		crashed = filepath.Join(cfg.work, "crashed")
		var err error
		if log, err = prepCrash(spec, cfg, graphPath, crashed, prep); err != nil {
			return nil, err
		}
	}

	sp := startProbe()
	srv, setups, err := setUp(spec, cfg, graphPath, crashed)
	setupProbe, perr := sp.end()
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	if perr != nil {
		return nil, perr
	}
	res.Raw["setup_s"] = stat.Median(setups)
	res.Samples["setup_s"] = len(setups)

	if crashed != "" {
		if err := checkPrepSurvived(srv.addr, log, res); err != nil {
			return nil, err
		}
	}

	conns, delta, windowProbe, err := drive(spec, cfg, srv, base)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.Raw["rss_peak_mb"] = rss
	res.Samples["rss_peak_mb"] = 1
	srv.kill()

	win := window{cfg.warmup, cfg.warmup + cfg.window}
	if log, err = collect(spec, conns, win, log, res); err != nil {
		return nil, err
	}
	res.Server = serverLayers(delta, cfg.window.Seconds())
	res.ProbeUS = map[string]float64{"setup": setupProbe, "window": windowProbe}
	normalize(res)
	verify(cfg.checks, g, conns, log, win, res)
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// setUp starts the server cfg.setups times, each from the same state,
// timing exec to the first 200 from /healthz, and leaves the last one
// running.
func setUp(spec workload.Spec, cfg runConfig, graphPath, crashed string) (*server, []float64, error) {
	var srv *server
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if srv != nil {
			srv.kill()
		}
		args := append([]string{}, spec.Flags...)
		switch {
		case crashed != "":
			// Every restart recovers its own copy of the crashed directory,
			// so each times the same checkpoint load and log replay.
			dir := filepath.Join(cfg.work, "data"+strconv.Itoa(i))
			if err := copyDir(crashed, dir); err != nil {
				return nil, nil, err
			}
			args = append(args, "-data-dir", dir)
		case spec.Durable:
			args = append(args, "-graph", graphPath, "-data-dir", filepath.Join(cfg.work, "data"+strconv.Itoa(i)))
		default:
			args = append(args, "-graph", graphPath)
		}
		var err error
		start := time.Now()
		if srv, err = startServer(cfg.server, filepath.Join(cfg.work, "server"+strconv.Itoa(i)+".log"), args); err != nil {
			return nil, nil, err
		}
		d, err := srv.waitReady(start, 150*time.Second)
		if err != nil {
			srv.kill()
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return srv, setups, nil
}

func writeGraph(path string, g *workload.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prepCrash boots a fresh durable server, has it ack the prep inserts one
// by one, and kills it with SIGKILL, leaving a crashed data directory.
func prepCrash(spec workload.Spec, cfg runConfig, graphPath, dir string, ops []workload.Op) ([]acked, error) {
	args := append(append([]string{}, spec.Flags...), "-graph", graphPath, "-data-dir", dir)
	srv, err := startServer(cfg.server, filepath.Join(cfg.work, "prep.log"), args)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	if _, err := srv.waitReady(time.Now(), 150*time.Second); err != nil {
		return nil, err
	}
	c := newConn(srv.addr)
	defer c.close()
	log := make([]acked, 0, len(ops))
	for i := range ops {
		batch := ops[i : i+1]
		_, epoch, _, err := c.post("/updates", map[string][]workload.Op{"ops": batch})
		if err != nil {
			return nil, fmt.Errorf("prep insert %d (%v): %w", i, ops[i], err)
		}
		log = append(log, acked{batch, epoch})
	}
	return log, nil
}

// checkPrepSurvived asks the restarted server for every insert acked
// before the crash: each must answer distance 1, or an acked write was lost.
func checkPrepSurvived(addr string, log []acked, res *result) error {
	var pairs []workload.Pair
	for _, a := range log {
		for _, op := range a.ops {
			pairs = append(pairs, workload.Pair{U: op.U, V: op.V})
		}
	}
	c := newConn(addr)
	defer c.close()
	body, epoch, _, err := c.post("/distances", map[string][]workload.Pair{"pairs": pairs})
	if err != nil {
		return fmt.Errorf("reading back the pre-crash inserts: %w", err)
	}
	ds, err := workload.ParseDistances(body, true)
	if err != nil {
		return err
	}
	if want := uint64(len(log)); epoch != want {
		res.Problems = append(res.Problems, fmt.Sprintf("restart recovered epoch %d, want %d", epoch, want))
	}
	lost := len(pairs) - len(ds)
	for _, d := range ds {
		if d != 1 {
			lost++
		}
	}
	if lost > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d acked pre-crash inserts lost", lost, len(pairs)))
	}
	return nil
}

// drive runs the two closed-loop connections through warm-up and the
// measured window, scraping /metrics at the window's edges.
func drive(spec workload.Spec, cfg runConfig, srv *server, base *workload.Graph) ([]*conn, promDelta, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.warmup+cfg.window)
	defer cancel()
	t0 := time.Now()
	conns := []*conn{newConn(srv.addr), newConn(srv.addr)}
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			if spec.Writer && i == 0 {
				c.writeLoop(ctx, t0, spec.Updates(base, cfg.seed), spec.OpsPerWrite())
				return
			}
			c.readLoop(ctx, t0, workload.NewPairs(cfg.seed, i, base.NumVertices()), spec.BatchPairs)
		}(i, c)
	}
	var d promDelta
	var err error
	time.Sleep(time.Until(t0.Add(cfg.warmup)))
	p := startProbe()
	if d.before, err = srv.metrics(ctx); err == nil {
		<-ctx.Done()
		d.after, err = srv.metrics(context.Background())
	}
	probeUS, perr := p.end()
	wg.Wait()
	for _, c := range conns {
		c.close()
	}
	return conns, d, probeUS, errors.Join(err, perr)
}

// window is the measured part of a run, as offsets from the load's start.
type window struct{ start, end time.Duration }

func (w window) holds(r record) bool { return r.done >= w.start && r.done < w.end }

// collect turns the connections' records into the end-to-end metrics and
// extends log with the load's acknowledged batches.
func collect(spec workload.Spec, conns []*conn, win window, log []acked, res *result) ([]acked, error) {
	var reads, primary []float64
	work := 0
	for _, c := range conns {
		if c.problem != nil {
			res.Problems = append(res.Problems, c.problem.Error())
		}
		for _, r := range c.recs {
			res.Attempted++
			if !r.ok {
				res.Failed++
				continue
			}
			if r.write {
				log = append(log, acked{r.ops, r.epoch})
			}
			if !win.holds(r) {
				continue
			}
			ms := float64(r.lat) / 1e6
			if !r.write {
				reads = append(reads, ms)
			}
			if r.write != spec.Writer {
				continue
			}
			// The workload's unit of work: distance pairs answered, or
			// update ops acknowledged.
			primary = append(primary, ms)
			work += len(r.pairs) + len(r.ops)
		}
	}
	// One writer: the i-th acknowledged batch publishes epoch i+1, the
	// prep inserts included.
	for i, a := range log {
		if want := uint64(i + 1); a.epoch != want {
			res.Problems = append(res.Problems, fmt.Sprintf("batch %d %v acked as epoch %d, want %d", i, a.ops, a.epoch, want))
			break
		}
	}
	res.Raw["throughput_per_s"] = float64(work) / (win.end - win.start).Seconds()
	res.Samples["throughput_per_s"] = len(primary)
	for _, p := range []struct {
		into map[string]float64
		name string
		xs   []float64
		q    float64
	}{
		{res.Raw, "latency_p50_ms", primary, 0.5}, {res.Raw, "latency_p90_ms", primary, 0.9},
		{res.Reads, "read_p50_ms", reads, 0.5}, {res.Reads, "read_p90_ms", reads, 0.9},
	} {
		v, err := stat.Percentile(stat.Sorted(p.xs), p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		p.into[p.name] = v
		res.Samples[p.name] = len(p.xs)
	}
	return log, nil
}

// normalize scales the raw end-to-end numbers to the reference machine:
// a time measured while the probe ran at twice probeRefUS would have taken
// half as long there, a rate would have been twice as high. Memory is not
// scaled.
func normalize(res *result) {
	setup := probeRefUS / res.ProbeUS["setup"]
	window := probeRefUS / res.ProbeUS["window"]
	res.Metrics["setup_s"] = res.Raw["setup_s"] * setup
	res.Metrics["latency_p50_ms"] = res.Raw["latency_p50_ms"] * window
	res.Metrics["latency_p90_ms"] = res.Raw["latency_p90_ms"] * window
	res.Metrics["throughput_per_s"] = res.Raw["throughput_per_s"] / window
	res.Metrics["rss_peak_mb"] = res.Raw["rss_peak_mb"]
}

// verify checks a fixed, evenly spaced sample of the window's served
// answers against the benchmark's own search over the graph at each
// answer's epoch, rebuilt by replaying the acknowledged batches.
func verify(checks int, g *workload.Graph, conns []*conn, log []acked, win window, res *result) {
	type answer struct {
		u, v, d uint32
		epoch   uint64
	}
	var all []record
	for _, c := range conns {
		for _, r := range c.recs {
			if r.ok && !r.write && win.holds(r) {
				all = append(all, r)
			}
		}
	}
	if len(all) == 0 {
		res.Problems = append(res.Problems, "no reads to verify")
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	per := len(all[0].pairs)
	want := min((checks+per-1)/per, len(all))
	var sample []answer
	for i := 0; i < want; i++ {
		r := all[i*len(all)/want]
		for j, p := range r.pairs {
			sample = append(sample, answer{p[0], p[1], r.dists[j], r.epoch})
		}
	}
	sort.SliceStable(sample, func(i, j int) bool { return sample[i].epoch < sample[j].epoch })

	ref := g.Clone()
	next := 0 // log[next] is the first batch not yet replayed
	var mu sync.Mutex
	wrong := 0
	for lo := 0; lo < len(sample); {
		epoch := sample[lo].epoch
		if epoch > uint64(len(log)) {
			res.Problems = append(res.Problems, fmt.Sprintf("read served epoch %d, past the last acked batch (%d)", epoch, len(log)))
			return
		}
		for ; next < len(log) && log[next].epoch <= epoch; next++ {
			for _, op := range log[next].ops {
				if err := ref.Apply(op); err != nil {
					res.Problems = append(res.Problems, fmt.Sprintf("replaying acked batch %d: %v", next, err))
					return
				}
			}
		}
		hi := lo
		for hi < len(sample) && sample[hi].epoch == epoch {
			hi++
		}
		// Answers of one epoch share the graph: check them on two cores.
		group := sample[lo:hi]
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := workload.NewSearcher(ref)
				for i := w; i < len(group); i += 2 {
					a := group[i]
					if truth := s.Dist(a.u, a.v); truth != a.d {
						mu.Lock()
						if wrong < 3 {
							res.Problems = append(res.Problems, fmt.Sprintf("d(%d,%d) at epoch %d: served %d, true %d", a.u, a.v, a.epoch, a.d, truth))
						}
						wrong++
						mu.Unlock()
					}
				}
			}(w)
		}
		wg.Wait()
		lo = hi
	}
	if wrong > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d checked answers wrong", wrong, len(sample)))
	}
	res.Samples["checked_answers"] = len(sample)
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(out, 0o777)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, b, info.Mode())
	})
}
