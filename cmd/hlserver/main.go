// Command hlserver serves exact distance queries and online updates over
// HTTP (see internal/httpapi for the JSON API). One binary serves all three
// index variants through the dynhl.Oracle interface: the graph comes from
// an edge-list file (undirected, directed, or weighted by -mode) or a
// generated dataset proxy.
//
//	hlserver -graph web.txt -addr :8080
//	hlserver -graph roads.txt -mode weighted
//	hlserver -dataset Flickr -scale 0.2 -landmarks 20
//
//	curl 'localhost:8080/distance?u=3&v=97'
//	curl -X POST localhost:8080/distances -d '{"pairs":[{"u":3,"v":97},{"u":0,"v":5}]}'
//	curl -X POST localhost:8080/edges -d '{"u":3,"v":97}'
//	curl -X DELETE 'localhost:8080/edges?u=3&v=97'
//	curl -X POST localhost:8080/updates -d '{"ops":[{"op":"insert_edge","u":3,"v":97},{"op":"delete_edge","u":0,"v":5}]}'
//
// The oracle is served through a versioned snapshot store: reads run
// lock-free against the current published snapshot (tagged with an
// X-Oracle-Epoch response header) and update batches posted to /updates
// publish atomically as one new epoch. Concurrent update requests ride the
// store's group-commit pipeline — batches waiting together coalesce into
// one fork, one WAL record (one fsync) and one published epoch, which the
// /updates response reports via its coalesced field — and a request whose
// client gives up before its batch commits is excised from the queue and
// answered 499. The server shuts down gracefully on SIGINT/SIGTERM,
// draining in-flight requests.
//
// With -data-dir the server is durable (undirected oracles): every update
// batch is appended to a write-ahead log before its epoch is published, a
// checkpoint of graph plus labelling is written every -checkpoint-every
// records (and on graceful shutdown), and a restart recovers the exact
// last durable epoch from checkpoint plus log tail instead of rebuilding
// the index from scratch — on an initialised data directory -graph is not
// needed. -fsync trades append latency for crash durability. The admin
// endpoints POST /checkpoint and GET /wal/stats come alive, and /stats
// carries the WAL counters.
//
//	hlserver -graph web.txt -data-dir /var/lib/hlserver   # first boot
//	hlserver -data-dir /var/lib/hlserver                  # every later boot
//
// Read scaling comes from replication (-role): a durable server started
// with -role leader additionally listens on -replicate-addr and streams its
// newest checkpoint plus WAL tail to followers; a server started with
// -role follower -leader-addr host:port needs no graph, labels or data
// directory at all — it bootstraps from the shipped checkpoint, replays
// every update batch under the leader's own epoch numbers, and serves the
// full read API. Followers answer writes with 503 plus an X-Oracle-Leader
// header pointing at the leader, report replication lag in /stats, and
// GET /healthz turns 200 once the first bootstrap lands.
//
//	hlserver -graph web.txt -data-dir /var/lib/hl -role leader -replicate-addr :7601
//	hlserver -role follower -leader-addr leader:7601 -addr :8081
//
// Without -data-dir, -load-labels seeds the server from a prebuilt
// labelling file (the Save/GET /labels format, written over the same
// graph) instead of constructing labels at boot, and -save-labels writes
// the final labelling on graceful shutdown for the next boot to load.
//
// Checkpoints, -load-labels files and a follower's shipped image are
// served straight out of an mmap wherever the host can map them, so boot
// cost stops scaling with labelling size — entries page in on first touch;
// elsewhere they are decoded onto the heap, with the same answers.
// MappedBytes in /stats and mapped_bytes in /healthz report the mapped
// region.
//
// Observability: GET /metrics exposes Prometheus text metrics (query
// latency histograms, write-pipeline stage timings, WAL and replication
// counters, Go runtime basics) on the API port. -debug-addr adds a second
// listener carrying /debug/pprof and /metrics, keeping profilers off the
// public port; -access-log logs one structured line per request; and
// -slow-query 50ms logs queries over the threshold, rate-bounded.
//
//	hlserver -graph web.txt -debug-addr localhost:6060 -slow-query 50ms
//	curl localhost:8080/metrics
//	go tool pprof localhost:6060/debug/pprof/profile
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	dynhl "repro"
	"repro/internal/cli"
	"repro/internal/httpapi"
	"repro/internal/repl"
	"repro/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		graphPath = flag.String("graph", "", "edge-list file to load")
		mode      = flag.String("mode", "undirected", "graph type of -graph: undirected, directed or weighted")
		ds        = flag.String("dataset", "", "generate a dataset proxy instead (undirected)")
		scale     = flag.Float64("scale", 0.2, "proxy scale when -dataset is used")
		landmarks = flag.Int("landmarks", 20, "number of landmarks |R|")
		strategy  = flag.String("strategy", "", "landmark selection strategy (topdegree, random, weighted)")
		seed      = flag.Int64("seed", 1, "generator and selection seed")

		dataDir    = flag.String("data-dir", "", "durability directory (WAL + checkpoints): recover on boot, log every update, checkpoint on shutdown")
		fsyncMode  = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always, interval or off")
		fsyncEvery = flag.Duration("fsync-interval", 100*time.Millisecond, "fsync cadence with -fsync interval")
		ckptEvery  = flag.Int("checkpoint-every", 10000, "WAL records between automatic checkpoints with -data-dir (0 = manual and shutdown only)")
		loadLabels = flag.String("load-labels", "", "labelling file to load at boot instead of constructing labels (saved over the same -graph and -mode)")
		saveLabels = flag.String("save-labels", "", "labelling file to write on graceful shutdown")

		role       = flag.String("role", "standalone", "serving role: standalone, leader (stream checkpoints + WAL to followers) or follower (replicate from -leader-addr)")
		replAddr   = flag.String("replicate-addr", ":7601", "replication listen address with -role leader")
		leaderAddr = flag.String("leader-addr", "", "leader replication address with -role follower")

		repairWorkers = flag.Int("repair-workers", 0, "per-landmark fan-out of update repairs and their label writes (0 = GOMAXPROCS, 1 = serial; results are identical for every value)")

		debugAddr = flag.String("debug-addr", "", "extra listen address serving /debug/pprof and /metrics (empty = off)")
		accessLog = flag.Bool("access-log", false, "log one structured line per HTTP request")
		slowQuery = flag.Duration("slow-query", 0, "log queries slower than this threshold, rate-bounded (0 = off)")
	)
	flag.Parse()

	switch *role {
	case "follower":
		if *leaderAddr == "" {
			log.Fatal("hlserver: -role follower requires -leader-addr")
		}
		runFollower(*addr, *leaderAddr, *repairWorkers, *debugAddr, *accessLog, *slowQuery)
		return
	case "standalone", "leader", "":
		if *role == "leader" && *dataDir == "" {
			log.Fatal("hlserver: -role leader requires -data-dir (followers replicate the WAL)")
		}
	default:
		log.Fatalf("hlserver: unknown -role %q (want standalone, leader or follower)", *role)
	}

	opt := dynhl.Options{Landmarks: *landmarks, Strategy: *strategy, Seed: *seed, Parallel: true, RepairWorkers: *repairWorkers}
	build := func() (dynhl.Oracle, error) {
		return cli.BuildOracle(*graphPath, *mode, *ds, *scale, opt)
	}

	start := time.Now()
	var store *dynhl.Store
	var durable *wal.Durable
	if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsyncMode)
		if err != nil {
			log.Fatal("hlserver: ", err)
		}
		recovering := wal.HasState(*dataDir)
		durable, err = wal.Open(*dataDir, build, wal.Options{
			Fsync:           policy,
			FsyncInterval:   *fsyncEvery,
			CheckpointEvery: *ckptEvery,
			Logf:            log.Printf,
		})
		if err != nil {
			log.Fatal("hlserver: ", err)
		}
		store = durable.Store()
		if recovering {
			if *graphPath != "" || *ds != "" {
				log.Printf("note: %s already holds state; -graph/-dataset ignored in favour of recovery", *dataDir)
			}
			log.Printf("recovered epoch %d from %s in %v (replayed %d log records)",
				store.Epoch(), *dataDir, time.Since(start).Round(time.Millisecond), durable.Replayed())
			if mapped := store.Stats().MappedBytes; mapped > 0 {
				log.Printf("labels mmap-served from the checkpoint (%d bytes page in on demand)", mapped)
			}
		} else {
			log.Printf("initialised durable state in %s (fsync %s)", *dataDir, policy)
		}
	} else {
		oracle, err := build()
		if err != nil {
			log.Fatal("hlserver: ", err)
		}
		store = dynhl.NewStore(oracle)
	}
	// Recovery rebuilds the oracle from checkpoint bytes, which does not
	// carry the fan-out; (re)apply it store-wide so every path agrees.
	store.SetRepairWorkers(*repairWorkers)
	log.Printf("repair engine: %d workers", store.RepairWorkers())
	if *loadLabels != "" {
		if _, err := store.LoadFile(*loadLabels); err != nil {
			log.Fatal("hlserver: ", err)
		}
		if mapped := store.Stats().MappedBytes; mapped > 0 {
			log.Printf("loaded labelling from %s mmap-served (epoch %d, %d bytes)", *loadLabels, store.Epoch(), mapped)
		} else {
			log.Printf("loaded labelling from %s (epoch %d)", *loadLabels, store.Epoch())
		}
	}
	st := store.Stats()
	log.Printf("graph: %d vertices, %d edges (%s)", st.Vertices, st.Edges, *mode)
	log.Printf("index ready in %v: %d landmarks, %d entries (%.2f per vertex), serving epoch %d",
		time.Since(start).Round(time.Millisecond), st.Landmarks, st.LabelEntries, st.AvgLabelSize,
		store.Epoch())

	var leader *repl.Leader
	if *role == "leader" {
		var err error
		leader, err = repl.StartLeader(*replAddr, durable, repl.Options{Logf: log.Printf})
		if err != nil {
			log.Fatal("hlserver: ", err)
		}
		log.Printf("replicating to followers on %s", leader.Addr())
	}

	if *slowQuery > 0 {
		store.SetSlowQueryLog(*slowQuery, nil)
		log.Printf("logging queries slower than %v", *slowQuery)
	}
	opts := []httpapi.Option{}
	if durable != nil {
		opts = append(opts, httpapi.WithDurability(durable))
	}
	api := httpapi.New(store, opts...)
	startDebug(*debugAddr, api)
	serve(*addr, maybeAccessLog(*accessLog, api.Handler()), func() {
		if leader != nil {
			// Drop follower links first: they reconnect against the next boot.
			if err := leader.Close(); err != nil {
				log.Print("hlserver: closing replication listener: ", err)
			}
		}
		if durable != nil {
			// The final checkpoint: the next boot recovers instantly.
			if err := durable.Close(); err != nil {
				log.Fatal("hlserver: closing durable store: ", err)
			}
			log.Printf("checkpointed epoch %d", store.Epoch())
		}
		if *saveLabels != "" {
			if err := saveLabelFile(store, *saveLabels); err != nil {
				log.Fatal("hlserver: ", err)
			}
			log.Printf("saved labelling to %s (epoch %d)", *saveLabels, store.Epoch())
		}
	})
}

// runFollower serves a read replica: no local graph, labels or WAL — the
// whole state is bootstrapped and then replayed from the leader.
func runFollower(addr, leaderAddr string, repairWorkers int, debugAddr string, accessLog bool, slowQuery time.Duration) {
	f := repl.StartFollower(leaderAddr, repl.Options{Logf: log.Printf, RepairWorkers: repairWorkers})
	log.Printf("replicating from %s (reads 503 until the first bootstrap lands)", leaderAddr)
	go func() {
		if err := f.WaitReady(context.Background()); err != nil {
			return
		}
		st := f.Store().Stats()
		log.Printf("bootstrapped at epoch %d: %d vertices, %d edges", st.Epoch, st.Vertices, st.Edges)
		if slowQuery > 0 {
			// The replica store exists only once the bootstrap lands.
			f.Store().SetSlowQueryLog(slowQuery, nil)
			log.Printf("logging queries slower than %v", slowQuery)
		}
	}()
	api := httpapi.NewReplica(f)
	startDebug(debugAddr, api)
	serve(addr, maybeAccessLog(accessLog, api.Handler()), func() {
		if err := f.Close(); err != nil {
			log.Fatal("hlserver: closing follower: ", err)
		}
		if s := f.Store(); s != nil {
			log.Printf("stopped replicating at epoch %d", s.Epoch())
		}
	})
}

// maybeAccessLog wraps next with the structured access log when enabled.
func maybeAccessLog(on bool, next http.Handler) http.Handler {
	if !on {
		return next
	}
	return httpapi.AccessLog(log.Printf, next)
}

// startDebug serves pprof and /metrics on their own listener when
// -debug-addr is set — the profiling surface stays off the public port.
func startDebug(addr string, api *httpapi.Server) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", api.MetricsHandler())
	go func() {
		log.Printf("debug listener (pprof + /metrics) on %s", addr)
		srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Print("hlserver: debug listener: ", err)
		}
	}()
}

// serve runs the HTTP server until SIGINT/SIGTERM, drains in-flight
// requests, then runs shutdown hooks (replication, checkpoints, labels).
func serve(addr string, handler http.Handler, shutdown func()) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal("hlserver: ", err)
	case <-ctx.Done():
		stop()
		log.Print("shutting down, draining in-flight requests")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Fatal("hlserver: shutdown: ", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("hlserver: ", err)
		}
		shutdown()
		log.Print("bye")
	}
}

// saveLabelFile writes the current snapshot's labelling to path, for the
// next boot's -load-labels.
func saveLabelFile(store *dynhl.Store, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
