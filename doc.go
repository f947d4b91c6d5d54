// Package dynhl answers exact shortest-path distance queries on large
// dynamic graphs and keeps its index up to date under edge and vertex
// insertions and deletions, implementing "Efficient Maintenance of Distance
// Labelling for Incremental Updates in Large Dynamic Graphs" (Farhan &
// Wang, EDBT 2021) and extending it to the fully dynamic setting.
//
// The index is a highway cover labelling: a small set of landmark vertices,
// the exact landmark-to-landmark distance matrix (the highway), and one
// compact distance label per vertex. Queries combine a highway upper bound
// with a bounded bidirectional search; insertions are absorbed by IncHL+,
// which finds the affected vertices with a jumped BFS and repairs exactly
// their labels while preserving labelling minimality — outdated and
// redundant entries are removed, so the index does not grow stale or bloated
// as the graph evolves.
//
// Deletions — which the paper leaves to its IncFD baseline — are absorbed
// by the decremental counterpart DecHL: the removed edge is tested against
// each landmark's labelled distances (it lies on a landmark's shortest-path
// DAG iff the endpoint distances differ by exactly the edge weight), and
// only the affected landmarks are repaired, resetting to Inf whatever the
// deletion disconnected. The repair is local on all three variants, in
// the manner of Ramalingam and Reps' decremental shortest paths (stated for
// positive weights): it visits the vertices whose distance grows and those
// whose covered flag can flip, not the graph.
// The repaired labelling is identical to a fresh build, so minimality is
// preserved in both directions of churn.
//
// # The Oracle interface
//
// All three index variants present one API, the Oracle interface: Index
// over undirected unweighted graphs (the paper's main setting), and the
// Section 5 extensions DirectedIndex (forward and backward labels per
// vertex) and WeightedIndex (Dijkstra replaces BFS). The three exported
// types share one implementation: each embeds the same oracle, which
// writes the queries, the ops, the loads and the statistics once, and
// reaches what the variant does differently — its query search, its cover
// audit, its edge updates and its fork — through its label index. A type
// adds only its Graph accessor and its constructors, so the method
// contracts live on Oracle and each type comment gives the variant's own
// facts. Each is built by an Options-driven constructor — Build,
// BuildDirected, BuildWeighted — with the same landmark-count,
// selection-strategy and seed knobs. Code written against Oracle, like the
// HTTP service in internal/httpapi, serves any variant:
//
//	g := dynhl.NewGraph(0)
//	// ... add vertices and edges ...
//	idx, err := dynhl.Build(g, dynhl.Options{Landmarks: 20})
//	d := idx.Query(u, v)              // exact distance, Inf if disconnected
//	ds := idx.QueryBatch(pairs)       // many pairs at once
//	idx.InsertEdge(a, b, 0)           // graph + index updated together
//	idx.InsertVertex(dynhl.Arcs(a))   // new vertex with initial neighbours
//	idx.DeleteEdge(a, b)              // DecHL repair; ErrNoSuchEdge if absent
//	idx.DeleteVertex(v)               // isolate v (id survives, queries Inf)
//
// The weight argument of InsertEdge and the Arc fields W/In exist for the
// weighted and directed variants; unweighted oracles reject weights > 1
// rather than silently dropping them. Mutations report failures through the
// sentinel errors ErrNoSuchVertex, ErrNoSuchEdge and ErrEdgeExists, which
// wrap through every layer up to the HTTP service. Every variant
// serialises its labelling (Saver and Loader). Batches of mutations are
// expressed as []Op (InsertEdgeOp, DeleteEdgeOp, InsertVertexOp,
// DeleteVertexOp) and applied with Oracle.Apply.
//
// # Concurrency: versioned snapshots
//
// Queries on every variant are safe for any number of concurrent readers —
// each in-flight query draws its own scratch from one pool (see below) —
// but readers must not race mutations. The Store packages that contract
// for the paper's target workloads (microsecond read-only lookups, rare
// repairs) around immutable published snapshots instead of locks:
//
//   - Readers load the current snapshot with one atomic pointer load and
//     run entirely lock-free. No repair — however long — ever stalls a
//     query, and a batch of queries is always answered by a single version.
//
//   - The writer applies a batch of ops to a private copy-on-write fork of
//     the index and then publishes the fork atomically as the next epoch.
//     A fork copies chunk directories and one bit per vertex, not the
//     per-vertex tables; a repair copies only the 512-vertex chunks of
//     adjacency and label headers it writes, plus the lists and labels
//     themselves, and shares everything else structurally with the
//     published snapshot (internal/cow). One fork amortises across the
//     batch.
//
//   - A batch that fails mid-way is discarded whole: the epoch does not
//     advance and readers never observe a half-applied batch.
//
// In code:
//
//	st := dynhl.NewStore(idx)
//	res, err := st.ApplyCtx(ctx, ops)  // canonical write call, see below
//	d := st.Query(u, v)                // lock-free, current epoch
//	v := st.Snapshot()                 // pin one immutable version
//	ds := v.QueryBatch(pairs)          // all answers from v.Epoch()
//	ds, err := v.QueryBatchCtx(ctx, pairs) // honours cancellation mid-batch
//
// A View stays valid indefinitely — holding one only pins the memory it
// shares with newer snapshots — and Epoch names the version it serves, the
// same number the HTTP service returns in its X-Oracle-Epoch header. A
// Store wraps only the package's own index variants — it publishes their
// copy-on-write forks — and NewStore panics on any other Oracle.
//
// # Group commit: the coalescing apply queue
//
// Concurrent writers do not take turns paying the full commit cost.
// ApplyCtx — the canonical write call, which Apply and the convenience
// mutators wrap — enqueues the caller's batch on an apply
// queue and parks the caller on a promised-epoch future. A committer
// goroutine (spawned on demand, retired when the queue drains) claims
// every batch waiting at that moment as one commit group and pays one
// copy-on-write fork, one repair pass, one WAL append — a
// single log record, hence a single fsync, covering every caller in the
// group — and one atomic publish for all of them. Each caller's future
// then resolves with its own per-op summaries and the shared epoch;
// ApplyResult.Coalesced reports whether the epoch was shared. Commit work
// is pipelined. The committer first validates the group: each caller's
// ops run through the variant's own checks against a view of the graph
// that records the group's edits, so the live callers and the group's WAL
// record are known before any label work. The committer then appends the
// record while a repairer goroutine repairs the same group, and
// the epoch publishes once both are done, so the fsync hides the repair.
// While the repairer publishes one group the committer already validates
// and appends the next. Under contention the group size grows with the
// backlog and the commit overhead per op shrinks accordingly
// (BenchmarkApplyConcurrent measures the effect; see EXPERIMENTS.md).
//
// Coalescing never weakens the per-batch contract. Each caller's ops are
// validated as their own segment of the group, on top of the segments
// accepted before it: if a segment fails, that caller alone is rejected
// with the error attributed to its failing op (OpError carries the op
// index and kind) and its edits are dropped — co-batched callers are never
// poisoned by a neighbour's invalid batch, and a rejected caller observes
// the same all-or-nothing outcome as if it had applied alone. A caller whose
// context is cancelled while its batch still waits on the queue is
// excised without side effects and gets the context error; once the
// committer has claimed the batch, the commit proceeds and the caller is
// handed its published epoch. Callers that mutate through an attached
// durability layer keep the WAL ordering guarantee: the group's single
// record is durable before its epoch becomes visible, and recovery replays
// one record per epoch exactly as a follower does.
//
// # The labelling core and its parallel repair engine
//
// The three variants are one labelled index, internal/hcl's Labelled,
// generic over the graph it is bound to. Its Core holds the landmarks and
// their rank table, the k×k highway, one label direction (two on the
// directed variant, forward and backward) as a copy-on-write table of
// packed label chunks, and the repair knobs. Construction, the codec,
// the query, the cover audit, the edge updates, Fork,
// serialisation, the repair engine and the update statistics (hcl.Stats)
// are implemented there once, and so are the two local repairs of all
// three variants: IncHL+'s jumped search and covered/uncovered
// classification (hcl.RepairInsertion) and DecHL's affected set, new
// distances and covered-flag propagation (hcl.RepairDeletion), both on one
// pooled, epoch-stamped scratch. The kernels are generic over the arc: a
// bare target on the unit-weight variants, which walk in FIFO order, and a
// target with a weight on the weighted one, which walks in the order of a
// monotone radix heap — IncHL+ with Dijkstra in place of BFS, as the paper
// extends it. The arc's size is a constant in each instantiation, so the
// unit kernels compile without the weighted branches. One driver runs
// them for every variant (Labelled.InsertEdge and DeleteEdge): the check,
// the graph edit, one task per (landmark, label direction) pass with its
// Lemma 4.3 test and its jump to d(r, tail) + w, and the statistics. A
// pass orients the edge by the labelling's kind, either way on an
// undirected graph, a→b forward and b→a backward on a directed one, and
// the edge's length is 1 or its weight. What each graph type does
// differently — its adjacency, bounded query search, full search for the
// cover audit and graph edit — is its substrate in hcl; the root package
// reaches the index through one generic adapter.
//
// Queries share one search toolkit. A unit-weight query refines its
// Equation 2 bound with internal/bfs's one bounded bidirectional BFS,
// which walks a forward and a backward adjacency table: an undirected
// graph passes its neighbour table twice, a digraph its out- and in-arcs.
// The weighted variant runs the bounded bidirectional Dijkstra of
// internal/wgraph on internal/queue's radix heap, pruned by landmark lower
// bounds read off the labels (ALT, Goldberg & Harrelson, SODA 2005). On
// an undirected graph |d(r,x) − d(r,t)| bounds d(x,t) from below for every
// landmark r, and every entry (r, δ) of L(x) is one such d(r,x) = δ, at no
// cost in index size. Per query, hcl.Core.ALT fills a table of d(r,u) and
// d(r,v) for every landmark r by Equation 1, in the pooled scratch. The
// search asks the bound when it pops a vertex x at its final distance, at
// most once per vertex and side, and does not expand x when that distance
// plus the bound to the other endpoint cannot beat the best path found;
// the bound is one pass over L(x), one table row per entry. Answers are
// unchanged, and on the weighted benchmark graph a search expands 844 of
// the 3,665 vertices it pops. The labelling's searches
// check no arc against the landmark set: a query blocks every landmark in
// its scratch (bfs.QuerySpace.Block, distance 0 on both sides) before the
// search and unblocks them after it, so the search never discovers one; the
// IncFD baseline's query does the same. Every indexed search, the
// IncFD baseline's included, draws its scratch (two distance vectors, the
// touched list, the BFS frontiers, the two heaps and the landmark table)
// from one process-wide pool, bfs.Spaces. The pool keeps at most one idle
// scratch per processor. A query takes its own processor's scratch first,
// which that processor's cache likely still holds, and any other one
// otherwise, so a warmed scratch serves the next query whichever processor
// runs it. Unlike a sync.Pool's, the pool's scratch survives garbage
// collection, so a steady-state query allocates nothing. A scratch grows
// geometrically when the graph gains vertices and fills only its new tail.
//
// Inside one repair, the per-landmark work is independent by construction:
// landmark r's repair writes only rank-r label entries and highway row r,
// and its affected-vertex classification reads only rank-r entries of
// other vertices. The engine (hcl.Repair) exploits that by fanning the
// per-landmark find+repair tasks (per label direction for the directed
// variant) across Options.RepairWorkers cores (0 = GOMAXPROCS): every
// task runs against the frozen pre-repair labelling and buffers its edits
// as a delta, a barrier separates the fan from the merge, and the merge
// applies the deltas in rank order: the highway cells one delta at a
// time, the label edits of all deltas one touched chunk at a time, the
// chunks fanned across the same workers. Because the
// serial path runs the identical task-then-merge code with one worker,
// the labelling and the update summaries are byte-identical for every
// worker count — the knob trades repair latency against cores, never
// results. Construction is the same fan over an empty labelling
// (Options.Parallel/Workers), whose merge lays every chunk out once.
// Store.SetRepairWorkers retunes a live store; every worker draws its
// search scratch from a package pool, so the repair of a freshly forked
// epoch allocates nothing per vertex beyond the span tables and labels it
// rewrites.
//
// # Construction: a direction-optimizing covered-flag BFS
//
// A build runs one covered-flag BFS per landmark and label direction
// (hcl.Core.RebuildBFS) and merges the entries of every vertex no other
// landmark covers. The BFS is direction-optimizing (Beamer, Asanović &
// Patterson, SC 2012), level by level over a forward and a backward
// adjacency — the neighbours twice on the undirected variant, out- and
// in-arcs on the directed one. A top-down level scans the frontier's
// children. A bottom-up level has every unvisited vertex scan its parents
// for one in the frontier, stopping at the first covered one, because a
// covered parent settles the vertex's flag; on a small-world graph that
// skips most arcs of the two or three widest levels. Both directions give
// a vertex its distance and the OR of all its frontier parents' flags, so
// the labelling is the same whichever way a level runs. The switch is
// Beamer's arcs test — bottom-up once the frontier's arcs exceed 1/14 of
// the unvisited vertices' arcs — taken only for a frontier of at least
// n/24 vertices that grows fast enough to outnumber the unvisited vertices
// within one more level, so a ring lattice never pays for it; a bottom-up
// search turns top-down again once its frontier shrinks below n/24.
//
// The graph such a build reads comes from an edge-list file in one pass:
// graph.ParseEdgeList parses the lines into endpoint arrays without a
// per-line allocation, and graph.Rows lays every adjacency list out at
// its final length in one allocation, in the order AddEdge calls would
// give, dropping repeated edges (the checkpoint decode, graph.FromEdges,
// rejects them instead). A "# vertices=N" header keeps trailing isolated
// vertices.
//
// # One label representation: copy-on-write packed chunks
//
// Every label direction is stored once, as hcl.Packed: the entries of each
// 512-vertex range laid out back to back in a chunk, with one span per
// vertex naming its entries. A query slices a label out of its chunk — no
// per-vertex pointer chase, a few arrays per chunk for the garbage
// collector instead of one per vertex — and the query kernels (Equations 1
// and 2) stream at most two contiguous entry spans plus one highway row
// per outer entry, allocation-free.
//
// The same table is what IncHL+ and DecHL write, so a batch needs no
// separate freeze before its epoch publishes. A fork copies the chunk
// directory and two owned bits per chunk and shares every chunk with its
// parent. The repair merge rewrites each chunk the batch touched once: on
// the chunk's first write in a fork it copies the chunk's span table (4
// KiB) and small overflow, and appends the rewritten labels to the
// overflow, leaving the chunk's base entries shared; once the overflow
// would outgrow a quarter of the base it lays the chunk out afresh
// instead. So an epoch touching k vertices copies at most k span tables
// plus what it writes, and the parent's snapshot never sees the writes.
// Stats reports the tables' memory as PackedBytes, and the stream codec
// writes each direction straight from its table as one CSR block and
// reads a block straight into one, chunk by chunk, which is what makes a
// checkpoint load (and PUT /labels) a bulk copy.
//
// # Durability: write-ahead log and checkpoints
//
// The whole point of maintaining a labelling incrementally is not paying
// the full construction cost again — yet an in-memory index pays exactly
// that on every process restart. The durability subsystem (internal/wal)
// closes the gap: a Store with a durability layer attached appends every
// applied op batch to a write-ahead log, tagged with the epoch it
// publishes, before readers can see that epoch. Versioned snapshots make
// the epoch a natural log sequence number: the record for epoch N is
// durable first, then N becomes visible, so under the fsync=always policy
// a kill -9 at any moment loses nothing that was ever served. Periodic
// checkpoints write the full graph and labelling of one immutable snapshot
// (never blocking writers) and truncate the log segments they supersede;
// recovery loads the newest valid checkpoint and replays the log tail —
// restart cost proportional to the churn since the last checkpoint, not to
// a rebuild. A torn final record (a crash mid-append) is truncated with a
// warning; corruption anywhere else refuses recovery rather than serving
// wrong distances.
//
// The Store side of the contract is the Durability interface and
// AttachDurability; Stats carries the epoch and the WAL counters
// (DurabilityStats). Ops encode to a compact binary form for the log
// (Op.AppendBinary, AppendOps, DecodeOps) while their JSON kinds stay the
// HTTP wire format. cmd/hlserver exposes the subsystem as -data-dir,
// -fsync and -checkpoint-every flags with recovery on boot and a clean
// checkpoint on graceful shutdown; the HTTP service adds POST /checkpoint
// and GET /wal/stats. Durability requires an oracle whose labelling and
// graph both serialise — currently the undirected Index.
//
// # Zero-copy checkpoints: the mapped label arena
//
// There is one on-disk format generation. A labelling stream — what Save
// writes, GET and PUT /labels carry, and checkpoints and replication
// images embed — is HCL3 (undirected), DHL2 (directed) or WHL2 (weighted):
// landmarks and highway, then per label table one block with u64 CSR
// offsets and the entries in their 8-byte in-memory layout, the entry area
// page-aligned relative to the start of the file. A checkpoint is HLWCKPT2:
// graph edge array plus a labelling stream written at its real file
// offset, with a trailer naming the entry spans, which its CRC32
// deliberately skips. That CRC shape is the point: recovery can mmap the
// checkpoint file, validate everything except the entry arenas — headers,
// graph, offset tables are fully checked — and attach the entries in place
// (AttachIndex), so boot cost stops scaling with labelling size and
// entry pages fault in on first use. The WAL tail then replays onto the
// mapped index directly: repairs never write a chunk's base, so they leave
// the mapped bytes alone, and the mapping is private (MAP_PRIVATE) anyway.
// Followers bootstrap the same way by spilling the shipped image to an
// unlinked temp file (wal.RebuildImage), and Store.LoadFile serves a label
// file the same way. Stats.MappedBytes reports the region still backing a
// labelling, next to PackedBytes.
//
// There is one label decoder (internal/hcl AttachCore), and it attaches
// bytes in place whichever of two places they come from. From a mapping,
// the labelling pins it and the entries are served unread. From the heap —
// LoadIndex, Load and PUT /labels read their input to the end into a
// buffer of exactly its length (hcl.ReadAll), a host that cannot map a
// file reads it whole, and a checkpoint loaded so attaches a copy of its
// label section only — the labelling aliases the bytes without ever
// writing them, and every label's ranks are checked, since such bytes may
// be untrusted. The decoder treats every stream as
// untrusted in its structure and allocates only for bytes that are there,
// never by the sizes a header claims. Where the host's entry layout
// differs from the wire layout or a block lands misaligned, it decodes
// that block into fresh memory itself; callers never see the difference.
//
// The lifecycle rule is reachability, not reference counting: an
// internal/arena.Mapping is pinned by every index, label table and
// snapshot that still aliases its bytes — forks inherit the pin — and is
// unmapped by a garbage-collector finalizer once the last such holder is
// gone. Checkpoint pruning therefore only ever unlinks files, never
// truncates them: a pinned View keeps serving pages of a checkpoint the
// pruner deleted minutes ago, and the kernel reclaims the blocks when
// the mapping drops. Writes put only the labels a batch touched on the
// heap, and a chunk leaves the mapping whole only when a write lays it out
// afresh; untouched chunks stay file-backed indefinitely.
//
// No option selects the load. One function in internal/wal (for
// checkpoint files and shipped images) and Store.LoadFile (for label
// files) map wherever the host can, and read the bytes onto the heap and
// make the same attach call — identical answers, identical Save bytes —
// only when the file cannot be mapped at all: the platform has no mmap (a
// build-tagged stub gates syscall use) or the mapping itself fails. An
// attach error means the bytes are damaged: they are rejected once, not
// decoded a second time.
//
// # Replication: WAL shipping to read-scaling followers
//
// One process answers queries on one machine's cores; the replication
// subsystem (internal/repl) turns the same write-ahead log into a read
// fleet. A durable server started as the leader listens on a replication
// port; each follower connects, names the epoch it already holds, and the
// leader either resumes the record stream from there or — when the
// follower is fresh, or its epoch fell behind the newest checkpoint's
// resume floor — ships the whole checkpoint image and streams onward from
// that. Followers rebuild the shipped image through the same codec path as
// crash recovery, replay each op batch with the leader's own epoch number,
// and publish exactly the leader's timeline: at every shared epoch the
// follower's serialised labelling is byte-identical to the leader's, which
// the differential test in internal/repl enforces round by round against
// BFS ground truth. A follower that loses the link reconnects with backoff
// and resumes from its own epoch; a follower that falls further behind
// than the leader's bounded per-session queue is dropped and re-bootstraps
// itself the same way. Epoch-less Load publishes (PUT /labels) ship as
// fresh checkpoint images mid-stream.
//
// The Store side is deliberately thin: AttachReplication registers a
// Replication layer whose ReplicationStats — role, link state, follower
// count, epoch and byte lag — ride Stats, /stats and GET /healthz;
// WaitEpoch parks a reader until a given epoch publishes, which is what
// lets a client that wrote through the leader read its own write on a
// follower by echoing the leader's X-Oracle-Epoch response header into a
// request header; Reset swaps a re-bootstrapped image into the same Store
// identity so long-lived Views and waiters survive. cmd/hlserver wires the
// whole stack as -role leader|follower, -replicate-addr and -leader-addr:
// followers need no graph, labels or data directory, serve the full read
// API, and answer writes with 503 plus an X-Oracle-Leader hint.
//
// # Observability: histograms, stage timings and /metrics
//
// Every Store carries an always-on metrics core (internal/obs): atomic
// counters, gauges and fixed-bucket log2 latency histograms where one
// observation is two atomic adds — no locks, no allocations — so the
// instrumented query path still passes the CI zero-alloc gate. Series
// follow the Prometheus naming idiom under a dynhl_ prefix, labelled by
// index variant: dynhl_query_seconds and dynhl_query_batch_seconds time
// the read path, dynhl_snapshot_pins_total counts epoch pins, and
// dynhl_apply_stage_seconds breaks every published epoch into the
// pipeline stages a write crosses — coalesce_wait (enqueue to claim),
// repair (validation, fork + IncHL+/DecHL and their label writes),
// wal_commit (append + fsync via the durability layer, running alongside
// repair), wal_wait (how long publish still waited on that append after
// repair: the part of the fsync the repair did not hide) and publish
// (snapshot swap) — with
// dynhl_apply_group_callers/_ops recording how much each group coalesced.
// The repair engine reports dynhl_repair_workers (the resolved fan-out)
// and dynhl_repair_landmark_seconds (per-landmark task latency, observed
// from the worker goroutines).
// Attached layers register their own series in their own registries —
// dynhl_wal_* (append/fsync/checkpoint timings, durable and checkpoint
// epochs, torn tails and recoveries), dynhl_repl_* (lag gauges and ship/
// ack/reconnect counters, role-labelled) and dynhl_arena_* (mapped
// bytes) — and Store.MetricsRegistries gathers them all, so GET /metrics
// on internal/httpapi serves one hand-rolled Prometheus text exposition
// covering whatever the process actually runs, plus go_* runtime basics.
// SetSlowQueryLog adds a threshold-gated, rate-bounded structured log of
// outlier queries, and cmd/hlserver's -debug-addr opens a second listener
// with net/http/pprof and /metrics so profilers stay off the public port.
//
// The internal packages hold the substrates and baselines used by the
// reproduction study: internal/hcl (the labelled index of all three
// variants, with IncHL+ and DecHL), internal/pll and internal/fulldyn (the IncPLL and
// IncFD baselines), internal/gen and internal/dataset (synthetic proxies of
// the paper's 12 networks) and internal/exper (the harness regenerating
// every table and figure of the paper; see EXPERIMENTS.md).
package dynhl
