package workload

import "fmt"

// GraphSpec describes a generated input graph.
type GraphSpec struct {
	// Web selects WebLocality; otherwise the graph is Barabási–Albert.
	Web      bool
	Vertices int
	M        int     // Barabási–Albert edges per new vertex
	Deg      int     // WebLocality target degree
	Span     int     // WebLocality locality window
	HubFrac  float64 // WebLocality share of hub vertices
	MaxW     int     // weights uniform in 1..MaxW; 0 = unweighted
}

// Build generates the graph of seed.
func (gs GraphSpec) Build(seed int64) *Graph {
	r := NewRand(seed, StreamGraph)
	var g *Graph
	if gs.Web {
		g = WebLocality(gs.Vertices, gs.Deg, gs.Span, gs.HubFrac, r)
	} else {
		g = BarabasiAlbert(gs.Vertices, gs.M, r)
	}
	if gs.MaxW > 0 {
		g = WithWeights(g, gs.MaxW, NewRand(seed, StreamWeights))
	}
	return g
}

// Spec is one workload: the graph, the traffic on hlserver's two client
// connections, and the server flags.
type Spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why   string
	Graph GraphSpec
	// BatchPairs > 0 sends reads as POST /distances with that many pairs;
	// 0 sends GET /distance.
	BatchPairs int
	// Writer makes connection 0 send POST /updates; connection 1
	// reads. Without it both connections read.
	Writer bool
	// Churn alternates random deletes with the inserts; each write is a
	// delete and its replacement insert in one two-op batch.
	Churn bool
	// Durable serves with a data directory; Flags carries the WAL policy.
	Durable bool
	// PrepInserts > 0 boots once, acks that many inserts, kills the server
	// with SIGKILL, and times the restart from the crashed directory as
	// the set-up instead of a fresh build.
	PrepInserts int
	// Flags are the hlserver flags beyond -graph, -addr and -data-dir.
	Flags []string
}

// Weighted reports whether the workload runs the weighted variant.
func (s Spec) Weighted() bool { return s.Graph.MaxW > 0 }

var durableFlags = []string{"-fsync", "always", "-checkpoint-every", "1000"}

// Specs are the benchmark's workloads, in run order.
var Specs = []Spec{
	{
		Name:  "social-read",
		Why:   "GET /distance on BA 200k m=8, 2 readers: the paper's headline query; HTTP and bounded BFS share the cost, no write code runs. Flags: none",
		Graph: GraphSpec{Vertices: 200_000, M: 8},
	},
	{
		Name:       "weighted-batch",
		Why:        "POST /distances of 4 pairs on a weighted web graph (40k, deg 20, w 1-8), 2 readers: bounded Dijkstra is ~99% of the time. Flags: -mode weighted",
		Graph:      GraphSpec{Web: true, Vertices: 40_000, Deg: 20, Span: 800, HubFrac: 0.01, MaxW: 8},
		BatchPairs: 4,
		Flags:      []string{"-mode", "weighted"},
	},
	{
		Name:        "insert-durable",
		Why:         "1 writer of single inserts + 1 reader on BA 200k after a crash restart: fork, pack and WAL dominate writes. Flags: -data-dir D -fsync always -checkpoint-every 1000",
		Graph:       GraphSpec{Vertices: 200_000, M: 8},
		Writer:      true,
		Durable:     true,
		PrepInserts: 500,
		Flags:       durableFlags,
	},
	{
		Name:    "churn-delete",
		Why:     "1 writer of delete+insert rewires + 1 reader on BA 50k: DecHL rebuilds dominate writes. Flags: -data-dir D -fsync always -checkpoint-every 1000",
		Graph:   GraphSpec{Vertices: 50_000, M: 8},
		Writer:  true,
		Churn:   true,
		Durable: true,
		Flags:   durableFlags,
	},
}

// OpsPerWrite is the number of update ops in one POST /updates. A churn
// write rewires an edge — a delete plus an insert — so every write costs
// about the same and its latency is one distribution, not two.
func (s Spec) OpsPerWrite() int {
	if s.Churn {
		return 2
	}
	return 1
}

// Lookup returns the workload called name.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// Updates returns the workload's update stream over g (the input graph,
// or for PrepInserts workloads the graph after the prep inserts).
func (s Spec) Updates(g *Graph, seed int64) *Updates {
	return NewUpdates(g, seed, StreamOps, s.Graph.MaxW, s.Churn)
}

// Prep returns the PrepInserts inserts acked before the crash, and the
// graph they produce.
func (s Spec) Prep(g *Graph, seed int64) ([]Op, *Graph) {
	u := NewUpdates(g, seed, StreamPrep, s.Graph.MaxW, false)
	ops := make([]Op, s.PrepInserts)
	for i := range ops {
		ops[i] = u.Next()
	}
	return ops, u.Graph()
}
