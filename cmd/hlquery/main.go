// Command hlquery builds a dynamic distance oracle over a graph and serves
// interactive queries and updates on stdin — a minimal operational shell
// around the library. The REPL works through the dynhl.Oracle interface, so
// it drives all three index variants (-mode).
//
// Load a graph from an edge-list file or generate a dataset proxy:
//
//	hlquery -graph web.txt -landmarks 20
//	hlquery -graph roads.txt -mode weighted
//	hlquery -dataset Skitter -scale 0.2
//
// The oracle sits behind a versioned snapshot store: queries read the
// current published epoch lock-free, single updates publish one epoch each,
// and apply batches any number of updates into ONE atomic publish — all ops
// land together or (if any fails) not at all.
//
// Commands on stdin:
//
//	q <u> <v>          exact distance query
//	qb <u> <v> [...]   batch query over any number of pairs
//	add <u> <v> [w]    insert edge (graph + index updated; weight on -mode weighted)
//	addv <n1,n2,..>    insert vertex connected to existing vertices
//	de <u> <v>         delete edge (DecHL repair; disconnections answer inf)
//	dv <v>             delete vertex (all incident edges; id stays, isolated)
//	apply <op> ; <op>  batch of add/addv/de/dv ops, one atomic epoch, e.g.
//	                   apply add 1 2 ; de 3 4 ; dv 9
//	epoch              current published epoch
//	stats              index size statistics (and WAL / replication counters)
//	role               replication role and link state
//	lag                replication lag in epochs and unapplied bytes
//	metrics            nonzero metric series
//	checkpoint         write a durability checkpoint (-data-dir only)
//	verify             O(|R|·|E|) correctness audit of the labelling
//	help, quit
//
// With -data-dir the session is durable: updates are logged to a WAL
// before publishing, recovery on start restores the last durable epoch
// (no -graph needed on later runs), and quit takes a final checkpoint.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	dynhl "repro"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/wal"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file to load")
		mode      = flag.String("mode", "undirected", "graph type of -graph: undirected, directed or weighted")
		ds        = flag.String("dataset", "", "generate a dataset proxy instead (e.g. Skitter)")
		scale     = flag.Float64("scale", 0.2, "proxy scale when -dataset is used")
		landmarks = flag.Int("landmarks", 20, "number of landmarks |R|")
		strategy  = flag.String("strategy", "", "landmark selection strategy (topdegree, random, weighted)")
		seed      = flag.Int64("seed", 1, "generator and selection seed")
		dataDir   = flag.String("data-dir", "", "durability directory: recover on start, WAL every update, checkpoint on quit")
	)
	flag.Parse()

	opt := dynhl.Options{Landmarks: *landmarks, Strategy: *strategy, Seed: *seed, Parallel: true}
	start := time.Now()
	var store *dynhl.Store
	var durable *wal.Durable
	if *dataDir != "" {
		recovering := wal.HasState(*dataDir)
		var err error
		durable, err = wal.Open(*dataDir, func() (dynhl.Oracle, error) {
			return cli.BuildOracle(*graphPath, *mode, *ds, *scale, opt)
		}, wal.Options{Logf: replWarnf})
		if err != nil {
			fatal(err)
		}
		store = durable.Store()
		if recovering {
			fmt.Printf("recovered epoch %d from %s in %v (replayed %d log records)\n",
				store.Epoch(), *dataDir, time.Since(start).Round(time.Millisecond), durable.Replayed())
		}
	} else {
		oracle, err := cli.BuildOracle(*graphPath, *mode, *ds, *scale, opt)
		if err != nil {
			fatal(err)
		}
		store = dynhl.NewStore(oracle)
	}
	st := store.Stats()
	fmt.Printf("graph: %d vertices, %d edges (%s)\n", st.Vertices, st.Edges, *mode)
	fmt.Printf("index ready in %v: %d landmarks, %d entries (avg %.2f/vertex)\n",
		time.Since(start).Round(time.Millisecond), st.Landmarks, st.LabelEntries, st.AvgLabelSize)

	repl(store, durable)
	if durable != nil {
		if err := durable.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpointed epoch %d\n", store.Epoch())
	}
}

// replWarnf surfaces WAL warnings without tearing the prompt apart.
func replWarnf(format string, args ...any) {
	fmt.Printf("wal: "+format+"\n", args...)
}

func repl(o *dynhl.Store, durable *wal.Durable) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 {
			if quit := execute(os.Stdout, o, durable, fields); quit {
				return
			}
		}
		fmt.Print("> ")
	}
}

// execute runs one command, reporting whether the REPL should exit.
func execute(w io.Writer, o *dynhl.Store, durable *wal.Durable, fields []string) bool {
	switch fields[0] {
	case "q", "query":
		u, v, err := twoVertices(fields[1:])
		if err == nil {
			err = checkVertices(o, u, v)
		}
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return false
		}
		start := time.Now()
		d := o.Query(u, v)
		el := time.Since(start)
		if d == dynhl.Inf {
			fmt.Fprintf(w, "d(%d,%d) = inf (unreachable)  [%v]\n", u, v, el)
		} else {
			fmt.Fprintf(w, "d(%d,%d) = %d  [%v]\n", u, v, d, el)
		}
	case "qb":
		pairs, err := parsePairs(fields[1:])
		for _, p := range pairs {
			if err != nil {
				break
			}
			err = checkVertices(o, p.U, p.V)
		}
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return false
		}
		start := time.Now()
		ds := o.QueryBatch(pairs)
		el := time.Since(start)
		for i, d := range ds {
			if d == dynhl.Inf {
				fmt.Fprintf(w, "d(%d,%d) = inf\n", pairs[i].U, pairs[i].V)
			} else {
				fmt.Fprintf(w, "d(%d,%d) = %d\n", pairs[i].U, pairs[i].V, d)
			}
		}
		fmt.Fprintf(w, "%d pairs  [%v]\n", len(pairs), el)
	case "add", "addv", "de", "del", "dv", "delv", "apply":
		update(w, o, fields)
	case "epoch":
		fmt.Fprintf(w, "epoch %d\n", o.Epoch())
	case "stats":
		printStats(w, o.Stats())
	case "role":
		printRole(w, o.Stats())
	case "lag":
		printLag(w, o.Stats())
	case "checkpoint":
		if durable == nil {
			fmt.Fprintln(w, "error: not a durable session (start with -data-dir)")
			return false
		}
		start := time.Now()
		epoch, err := durable.Checkpoint()
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return false
		}
		fmt.Fprintf(w, "checkpointed epoch %d  [%v]\n", epoch, time.Since(start))
	case "verify":
		start := time.Now()
		if err := o.Verify(); err != nil {
			fmt.Fprintln(w, "VERIFY FAILED:", err)
		} else {
			fmt.Fprintf(w, "labelling verified exact [%v]\n", time.Since(start))
		}
	case "metrics":
		var b strings.Builder
		regs := append(o.MetricsRegistries(), obs.Runtime())
		if err := obs.WriteAll(&b, regs...); err != nil {
			fmt.Fprintln(w, "error:", err)
			return false
		}
		printMetrics(w, b.String())
	case "help":
		fmt.Fprintln(w, "commands: q <u> <v> | qb <u> <v> [<u> <v> ...] | add <u> <v> [w] | addv n1,n2,... | de <u> <v> | dv <v> | apply <op> ; <op> ... | epoch | stats | role | lag | metrics | checkpoint | verify | quit")
	case "quit", "exit":
		return true
	default:
		fmt.Fprintf(w, "unknown command %q (try help)\n", fields[0])
	}
	return false
}

// printStats renders one Stats the same way for every variant: the index
// line always carries the packed CSR bytes and the published epoch, with
// WAL and replication counters on their own lines when present.
func printStats(w io.Writer, st dynhl.Stats) {
	fmt.Fprintf(w, "vertices=%d edges=%d landmarks=%d entries=%d avg=%.2f bytes=%d packed=%d mapped=%d epoch=%d\n",
		st.Vertices, st.Edges, st.Landmarks, st.LabelEntries, st.AvgLabelSize, st.Bytes, st.PackedBytes, st.MappedBytes, st.Epoch)
	if d := st.Durability; d != nil {
		fmt.Fprintf(w, "wal: records=%d bytes=%d syncs=%d durable_epoch=%d checkpoint_epoch=%d segments=%d replayed=%d\n",
			d.Records, d.Bytes, d.Syncs, d.DurableEpoch, d.CheckpointEpoch, d.Segments, d.Replayed)
	}
	if r := st.Replication; r != nil {
		fmt.Fprintf(w, "repl: role=%s ready=%v connected=%v leader_epoch=%d lag_epochs=%d lag_bytes=%d followers=%d\n",
			r.Role, r.Ready, r.Connected, r.LeaderEpoch, r.LagEpochs, r.LagBytes, r.Followers)
	}
}

// printRole renders the replication role and link state.
func printRole(w io.Writer, st dynhl.Stats) {
	r := st.Replication
	if r == nil {
		fmt.Fprintln(w, "role standalone (no replication link)")
		return
	}
	switch r.Role {
	case "leader":
		fmt.Fprintf(w, "role leader: epoch %d, %d followers, shipped %d records / %d bytes (%d bootstraps, %d resumes)\n",
			st.Epoch, r.Followers, r.ShippedRecords, r.ShippedBytes, r.Bootstraps, r.Resumes)
	default:
		state := "bootstrapping"
		if r.Ready {
			state = "serving"
		}
		link := "disconnected"
		if r.Connected {
			link = "connected"
		}
		fmt.Fprintf(w, "role follower of %s: %s, link %s, epoch %d (leader at %d)\n",
			r.Leader, state, link, st.Epoch, r.LeaderEpoch)
	}
}

// printLag renders how far the store trails (or leads) its replication peer.
func printLag(w io.Writer, st dynhl.Stats) {
	r := st.Replication
	if r == nil {
		fmt.Fprintln(w, "lag: standalone store, no replication link")
		return
	}
	line := fmt.Sprintf("lag: %d epochs, %d bytes unapplied (epoch %d, leader at %d)",
		r.LagEpochs, r.LagBytes, st.Epoch, r.LeaderEpoch)
	if !r.LastContact.IsZero() {
		line += fmt.Sprintf(", last contact %v ago", time.Since(r.LastContact).Round(time.Millisecond))
	}
	fmt.Fprintln(w, line)
}

// printMetrics renders a Prometheus text exposition for a terminal: the
// nonzero series, minus the per-bucket histogram lines (the _sum/_count
// pairs tell the latency story at a glance; scrape /metrics for buckets).
func printMetrics(w io.Writer, text string) {
	shown := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "_bucket") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil && v == 0 {
			continue
		}
		fmt.Fprintln(w, line)
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(w, "no nonzero series yet (run some queries or updates first)")
	}
}

// update runs an update command through ApplyCtx, the Store's one write
// path: add, addv, de and dv publish their one op as an epoch, apply its
// whole batch as one.
func update(w io.Writer, o *dynhl.Store, fields []string) {
	batch := fields[0] == "apply"
	var ops []dynhl.Op
	var err error
	if batch {
		ops, err = parseOps(fields[1:])
	} else {
		var op dynhl.Op
		op, err = parseOp(fields)
		ops = []dynhl.Op{op}
	}
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	start := time.Now()
	res, err := o.ApplyCtx(context.Background(), ops)
	el := time.Since(start)
	switch {
	case err != nil && batch:
		fmt.Fprintln(w, "error (batch discarded, epoch unchanged):", err)
	case err != nil:
		fmt.Fprintln(w, "error:", err)
	case batch:
		added, removed := 0, 0
		for _, s := range res.Summaries {
			added += s.EntriesAdded
			removed += s.EntriesRemoved
		}
		note := ""
		if res.Coalesced {
			note = " (group commit, epoch shared with concurrent writers)"
		}
		fmt.Fprintf(w, "applied %d ops as epoch %d%s: +%d/-%d entries  [%v]\n",
			len(ops), res.Epoch, note, added, removed, el)
		for i, s := range res.Summaries {
			if s.NewVertex != nil {
				fmt.Fprintf(w, "  op %d inserted vertex %d\n", i, *s.NewVertex)
			}
		}
	default:
		op, s := ops[0], res.Summaries[0]
		switch op.Kind {
		case dynhl.OpInsertEdge:
			fmt.Fprintf(w, "inserted (%d,%d): %d affected, +%d/-%d entries  [%v]\n",
				op.U, op.V, s.Affected, s.EntriesAdded, s.EntriesRemoved, el)
		case dynhl.OpInsertVertex:
			fmt.Fprintf(w, "inserted vertex %d (%d neighbours, %d affected)\n", *s.NewVertex, len(op.Arcs), s.Affected)
		case dynhl.OpDeleteEdge:
			fmt.Fprintf(w, "deleted (%d,%d): %d affected, +%d/-%d entries  [%v]\n",
				op.U, op.V, s.Affected, s.EntriesAdded, s.EntriesRemoved, el)
		case dynhl.OpDeleteVertex:
			fmt.Fprintf(w, "isolated vertex %d: +%d/-%d entries  [%v]\n", op.V, s.EntriesAdded, s.EntriesRemoved, el)
		}
	}
}

// parseOps parses an apply command's tail: semicolon-separated
// add/addv/de/dv sub-commands in the single-update syntax.
func parseOps(args []string) ([]dynhl.Op, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("usage: apply <op> [; <op> ...] with ops add <u> <v> [w] | addv n1,n2,... | de <u> <v> | dv <v>")
	}
	var ops []dynhl.Op
	for _, clause := range strings.Split(strings.Join(args, " "), ";") {
		fields := strings.Fields(clause)
		if len(fields) == 0 {
			continue
		}
		op, err := parseOp(fields)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("empty op batch")
	}
	return ops, nil
}

// parseOp parses one add/addv/de/dv command.
func parseOp(fields []string) (dynhl.Op, error) {
	switch fields[0] {
	case "add":
		if len(fields) < 3 || len(fields) > 4 {
			return dynhl.Op{}, fmt.Errorf("usage add <u> <v> [w]")
		}
		u, v, err := twoVertices(fields[1:3])
		if err != nil {
			return dynhl.Op{}, err
		}
		var w dynhl.Dist
		if len(fields) == 4 {
			parsed, err := strconv.ParseUint(fields[3], 10, 32)
			if err != nil {
				return dynhl.Op{}, err
			}
			w = dynhl.Dist(parsed)
		}
		return dynhl.InsertEdgeOp(u, v, w), nil
	case "addv":
		if len(fields) != 2 {
			return dynhl.Op{}, fmt.Errorf("usage addv n1,n2,...")
		}
		var arcs []dynhl.Arc
		for _, s := range strings.Split(fields[1], ",") {
			n, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				return dynhl.Op{}, err
			}
			arcs = append(arcs, dynhl.Arc{To: uint32(n)})
		}
		return dynhl.InsertVertexOp(arcs...), nil
	case "de", "del":
		if len(fields) != 3 {
			return dynhl.Op{}, fmt.Errorf("usage de <u> <v>")
		}
		u, v, err := twoVertices(fields[1:])
		if err != nil {
			return dynhl.Op{}, err
		}
		return dynhl.DeleteEdgeOp(u, v), nil
	case "dv", "delv":
		if len(fields) != 2 {
			return dynhl.Op{}, fmt.Errorf("usage dv <v>")
		}
		n, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return dynhl.Op{}, err
		}
		return dynhl.DeleteVertexOp(uint32(n)), nil
	}
	return dynhl.Op{}, fmt.Errorf("unknown op %q (want add, addv, de or dv)", fields[0])
}

// checkVertices guards the query paths: Oracle.Query panics on ids the
// graph has never seen, so the REPL refuses them with an error instead.
func checkVertices(o dynhl.Oracle, vs ...uint32) error {
	n := o.NumVertices()
	for _, v := range vs {
		if int(v) >= n {
			return fmt.Errorf("vertex %d out of range (have %d vertices)", v, n)
		}
	}
	return nil
}

func parsePairs(args []string) ([]dynhl.Pair, error) {
	if len(args) == 0 || len(args)%2 != 0 {
		return nil, fmt.Errorf("want an even number of vertex ids")
	}
	pairs := make([]dynhl.Pair, 0, len(args)/2)
	for i := 0; i < len(args); i += 2 {
		u, v, err := twoVertices(args[i : i+2])
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, dynhl.Pair{U: u, V: v})
	}
	return pairs, nil
}

func twoVertices(args []string) (uint32, uint32, error) {
	if len(args) != 2 {
		return 0, 0, fmt.Errorf("want two vertex ids")
	}
	u, err := strconv.ParseUint(args[0], 10, 32)
	if err != nil {
		return 0, 0, err
	}
	v, err := strconv.ParseUint(args[1], 10, 32)
	if err != nil {
		return 0, 0, err
	}
	return uint32(u), uint32(v), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hlquery:", err)
	os.Exit(1)
}
