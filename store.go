package dynhl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fanout"
)

// batchChunk is the smallest per-worker share of a fanned QueryBatch; below
// it the goroutine hand-off costs more than the queries save.
const batchChunk = 32

// serialBatchMax is the batch size up to which QueryBatch stays on the
// serial path: with at most two chunks' worth of pairs the fan-out spawns
// goroutines that each do less work than their own hand-off costs (see
// BenchmarkQueryBatchCrossover).
const serialBatchMax = 2 * batchChunk

// batchWorkers caches the worker ceiling for fanned batches once; the
// per-call GOMAXPROCS read of the old wrapper bought nothing since batch
// fan-out is already bounded by batch size.
var batchWorkers = sync.OnceValue(func() int { return runtime.GOMAXPROCS(0) })

// View is a read-only, immutable snapshot of an Oracle at one epoch. Every
// method answers against exactly the state published at Epoch(): a batch
// never mixes distances from different versions, and no mutation — however
// long its repair runs — ever blocks or changes a View already handed out.
// Views are safe for concurrent use and stay valid indefinitely; holding
// one only pins memory shared structurally with newer snapshots.
type View interface {
	// Query returns the exact distance from u to v in this snapshot.
	Query(u, v uint32) Dist
	// QueryBatch answers many pairs against this one snapshot, fanning
	// large batches across workers.
	QueryBatch(pairs []Pair) []Dist
	// QueryBatchCtx is QueryBatch honouring cancellation between chunks of
	// batchChunk pairs; it returns ctx.Err() when cancelled mid-batch.
	QueryBatchCtx(ctx context.Context, pairs []Pair) ([]Dist, error)
	// NumVertices returns the snapshot's vertex count.
	NumVertices() int
	// Stats returns the snapshot's index size statistics.
	Stats() Stats
	// Epoch returns the version this snapshot was published as. Epochs
	// start at 0 for the freshly wrapped oracle and increase by exactly one
	// per published batch (Apply, single mutation, or Load).
	Epoch() uint64
	// Save serialises the snapshot's labelling — exactly the version Epoch
	// names, however many epochs the store publishes meanwhile — which is
	// how the HTTP service streams an epoch-consistent labelling download.
	Save(w io.Writer) error
}

// variant is what a Store wraps and Unwrap returns: one of the package's
// index types (Index, DirectedIndex, WeightedIndex), each an embedded
// oracle, which implements once what the store needs:
//
//   - fork returns a copy-on-write working copy whose mutations never
//     touch the receiver;
//   - the writer methods are the edge-level edits its ops are written
//     over (write.go), and checker returns the validity pre-pass over
//     its graph, which the pipeline runs on a batch before any label work
//     starts;
//   - base returns the oracle itself, for the loads and the repair
//     settings (the core's per-landmark fan-out and per-task timer).
//     Forks and loads inherit the settings, so tuning the current
//     snapshot covers every future epoch.
type variant interface {
	Oracle
	Saver
	writer
	fork() variant
	checker() *prepass
	base() *oracle
}

// snapshot is one published version: an oracle frozen at an epoch.
type snapshot struct {
	o     variant
	epoch uint64
}

// Store is the versioned snapshot coordinator of an Oracle — the
// concurrency layer matching the paper's workload: queries are microsecond
// read-only lookups that must never wait, IncHL+/DecHL repairs are rare and
// may be batched. Readers load the current immutable snapshot with a single
// atomic pointer load and run entirely lock-free; the writer applies a
// batch of ops to a private copy-on-write fork (copying only the label
// slices and adjacency lists the repairs actually touch) and publishes it
// atomically as the next epoch. A failed batch is discarded whole: readers
// never observe a half-applied batch, and the epoch does not advance.
//
// A Store is safe for any number of concurrent readers and writers.
// Concurrent writers are not merely serialised: the group-commit pipeline
// (ApplyCtx, store_queue.go) coalesces every batch waiting on the apply
// queue into one combined fork + repair + WAL record + publish,
// resolving each caller with its own slice of the result — under write
// contention the per-caller commit overheads amortise across the group
// instead of queueing up. The Store implements Oracle (single mutations
// are one-op batches), so it drops into any code written against the
// interface, and Saver/Loader.
type Store struct {
	wmu sync.Mutex // serialises writers (the commit pipeline, Load, Reset)
	cur atomic.Pointer[snapshot]

	// qmu guards queue and qrun — the group-commit apply queue (see
	// store_queue.go). ApplyCtx callers enqueue here and park on a
	// promised-epoch future; a committer goroutine runs while the queue
	// drains and retires when it stays empty.
	qmu   sync.Mutex
	queue []*applyReq
	qrun  bool

	// dur holds the attached Durability layer (or nil); written once by
	// AttachDurability, read on every publish and by Stats.
	dur atomic.Value

	// repl holds the attached Replication layer (or nil); written once by
	// AttachReplication, read by Stats.
	repl atomic.Value

	// pubMu guards pubCh, the broadcast channel WaitEpoch callers park on:
	// every publish closes the current channel (waking all waiters) and the
	// next waiter lazily installs a fresh one. The mutex is only on the
	// write/wait paths — the lock-free read path never touches it.
	pubMu sync.Mutex
	pubCh chan struct{}

	// metrics is the store's observability surface (metrics.go): set once
	// at construction, recorded into by the read path and the commit
	// pipeline with atomic adds only.
	metrics *storeMetrics

	// repairWorkers is the requested per-landmark repair fan-out (raw:
	// 0 = GOMAXPROCS). The store owns it: the committer sets it on each
	// group's private fork, and Reset and the loads on their oracle before
	// publishing it, so no published snapshot is ever written.
	repairWorkers atomic.Int64
}

// DurabilityStats describes the state of a durability layer attached with
// AttachDurability — write-ahead log counters and recovery provenance. It
// appears in Store.Stats (and the HTTP /stats endpoint) so basic WAL
// visibility does not require the admin endpoints.
type DurabilityStats struct {
	// Records and Bytes count the WAL records appended since the log was
	// opened, and their total encoded size.
	Records uint64
	Bytes   uint64
	// Syncs counts fsync calls issued; LastSync is when the latest one
	// completed (zero when the log has never synced).
	Syncs    uint64
	LastSync time.Time
	// DurableEpoch is the highest epoch known to be durable — the log's
	// sequence number: every epoch at or below it survives a crash.
	DurableEpoch uint64
	// CheckpointEpoch is the epoch of the newest completed checkpoint;
	// log records at or below it have been superseded.
	CheckpointEpoch uint64
	// Segments is the number of live log segment files.
	Segments int
	// Replayed is the number of records the recovery that opened this log
	// replayed over its checkpoint (zero for a fresh directory).
	Replayed uint64
}

// ReplicationStats describes the replication role and progress of a Store
// with a replication layer attached (implemented by internal/repl). It
// appears in Store.Stats (and the HTTP /stats and /healthz endpoints) so
// replicas expose how far behind their leader they are.
type ReplicationStats struct {
	// Role is "leader" or "follower".
	Role string
	// Leader is the leader's replication address (followers only).
	Leader string `json:",omitempty"`
	// Connected reports whether the replication link is currently up (for
	// a leader: whether it is accepting followers).
	Connected bool
	// Ready reports whether the replica has completed its bootstrap and is
	// serving reads (always true on a leader).
	Ready bool
	// LeaderEpoch is the newest epoch the leader is known to have
	// published (a follower's view lags by at most one heartbeat).
	LeaderEpoch uint64
	// LagEpochs is how many epochs this store is behind: for a follower,
	// LeaderEpoch minus its applied epoch; for a leader, its epoch minus
	// the slowest connected follower's acknowledged epoch.
	LagEpochs uint64
	// LagBytes is the encoded size of the records received from the leader
	// but not yet applied (the follower's apply backlog).
	LagBytes uint64
	// LastContact is when the follower last heard from its leader (zero on
	// a leader or before the first contact).
	LastContact time.Time `json:",omitempty"`
	// Followers is the number of connected followers (leaders only).
	Followers int `json:",omitempty"`
	// ShippedRecords and ShippedBytes count what a leader has sent to
	// followers over its lifetime, across all sessions.
	ShippedRecords uint64 `json:",omitempty"`
	ShippedBytes   uint64 `json:",omitempty"`
	// Bootstraps counts checkpoint-image bootstraps this follower has
	// performed (at least one; more after reconnects that found the log
	// truncated past their resume epoch). Resumes counts reconnects that
	// continued from the follower's own epoch without a new image.
	Bootstraps uint64 `json:",omitempty"`
	Resumes    uint64 `json:",omitempty"`
}

// Replication is a replication layer attached to a Store with
// AttachReplication — purely observational from the store's side: the layer
// (a leader shipping its WAL, or a follower applying it) reports its role
// and progress, and Stats carries the numbers so /stats and /healthz can
// expose replication lag without knowing the transport.
type Replication interface {
	ReplicationStats() ReplicationStats
}

// AttachReplication registers r as the store's replication layer: Stats
// reports its role and lag. A Store accepts at most one layer.
func (s *Store) AttachReplication(r Replication) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.replication() != nil {
		return errors.New("dynhl: store already has a replication layer")
	}
	s.repl.Store(&r)
	return nil
}

// replication returns the attached layer, or nil.
func (s *Store) replication() Replication {
	if r, ok := s.repl.Load().(*Replication); ok {
		return *r
	}
	return nil
}

// Durability is a write-ahead durability layer attached to a Store with
// AttachDurability (implemented by internal/wal). It has two entry points,
// and a Store publishes an epoch only after the one that covers it
// succeeded; an error aborts the publish and the epoch does not advance.
//
//   - Append makes the op batch that produces epoch durable. The write
//     pipeline calls it as soon as a group's valid callers are known, in
//     epoch order, and repairs the labelling while the append (and its
//     fsync) runs, so it gets no View: the state the ops produce does not
//     exist yet. An epoch's Append starts only after the previous epoch's
//     Append succeeded.
//   - Capture makes next durable when it was published without an op
//     batch (Load), so the layer must capture the state itself, e.g. by
//     checkpointing it. No Append runs meanwhile.
type Durability interface {
	Append(epoch uint64, ops []Op) error
	Capture(next View) error
	DurabilityStats() DurabilityStats
}

// AttachDurability registers d as the store's durability layer: every
// subsequent publish waits for d.Append or d.Capture to succeed before
// becoming visible, and Stats reports d's counters. A Store accepts at
// most one layer; attaching to a store that already has one is an error.
func (s *Store) AttachDurability(d Durability) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.durability() != nil {
		return errors.New("dynhl: store already has a durability layer")
	}
	s.dur.Store(&d)
	return nil
}

// durability returns the attached layer, or nil.
func (s *Store) durability() Durability {
	if d, ok := s.dur.Load().(*Durability); ok {
		return *d
	}
	return nil
}

// NewStore wraps o for versioned snapshot access at epoch 0. Wrapping a
// Store returns it unchanged. Otherwise o must be one of the package's
// index variants (Index, DirectedIndex, WeightedIndex), whose copy-on-write
// forks the Store publishes; NewStore panics on any other Oracle.
func NewStore(o Oracle) *Store {
	if st, ok := o.(*Store); ok {
		return st
	}
	return newStore(o, 0)
}

// NewStoreAt wraps o like NewStore but publishes it as the given epoch
// instead of 0 — the entry point for restoring persisted state: a recovery
// (internal/wal) rebuilds the oracle from a checkpoint, wraps it at the
// checkpoint's epoch, and replays the log tail over it so replayed batches
// republish under their original epochs. o must be a plain index variant;
// wrapping an existing Store cannot rewrite its history and panics.
func NewStoreAt(o Oracle, epoch uint64) *Store {
	if _, ok := o.(*Store); ok {
		panic("dynhl: NewStoreAt needs a plain oracle, not an existing store")
	}
	return newStore(o, epoch)
}

func newStore(o Oracle, epoch uint64) *Store {
	v, ok := o.(variant)
	if !ok {
		panic(fmt.Sprintf("dynhl: a Store wraps the package's index variants, not %T", o))
	}
	s := &Store{}
	s.metrics = newStoreMetrics(s, variantOf(v))
	s.repairWorkers.Store(int64(v.base().core.Workers))
	s.tuneRepair(v)
	s.cur.Store(&snapshot{o: v, epoch: epoch})
	return s
}

// tuneRepair gives o, which no reader can reach yet, the store's repair
// settings: the requested fan-out and the per-landmark task timer feeding
// dynhl_repair_landmark_seconds.
func (s *Store) tuneRepair(o variant) {
	c := o.base().core
	c.Workers = int(s.repairWorkers.Load())
	c.RepairTimer = s.metrics.repairLandmark.ObserveDuration
}

// SetRepairWorkers tunes the per-landmark fan-out of the repair engine for
// every subsequent write (0 = GOMAXPROCS, 1 = serial; see
// Options.RepairWorkers). The labelling is byte-identical for every worker
// count, so the knob trades repair latency against cores without affecting
// results.
func (s *Store) SetRepairWorkers(n int) { s.repairWorkers.Store(int64(n)) }

// RepairWorkers returns the resolved per-landmark repair fan-out of the
// store's writes.
func (s *Store) RepairWorkers() int { return fanout.Resolve(int(s.repairWorkers.Load())) }

// publish installs next as the current version and wakes every WaitEpoch
// caller parked on the previous one.
func (s *Store) publish(next *snapshot) {
	s.cur.Store(next)
	s.pubMu.Lock()
	if s.pubCh != nil {
		close(s.pubCh)
		s.pubCh = nil
	}
	s.pubMu.Unlock()
}

// WaitEpoch blocks until the store has published epoch (or a later one) or
// ctx is done, returning ctx's error in the latter case. It returns
// immediately when the store is already there — the common case on a
// leader. This is the primitive behind read-your-writes on replicas: a
// client that saw epoch N from a write routes its read anywhere and asks
// the replica to wait until it has caught up to N.
func (s *Store) WaitEpoch(ctx context.Context, epoch uint64) error {
	for {
		if s.cur.Load().epoch >= epoch {
			return nil
		}
		s.pubMu.Lock()
		if s.pubCh == nil {
			s.pubCh = make(chan struct{})
		}
		ch := s.pubCh
		s.pubMu.Unlock()
		// Re-check after subscribing: a publish between the first load and
		// the subscription closed the previous channel, not ch.
		if s.cur.Load().epoch >= epoch {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Reset publishes o wholesale as the store's current version at the given
// epoch, discarding the previous oracle — the replication bootstrap entry
// point: a follower that receives a checkpoint image (first contact, or a
// reconnect finding the leader's log truncated past its resume epoch)
// rebuilds the oracle from it and resets its serving store to the image's
// epoch, keeping the store identity (and every View already handed out)
// intact. The epoch may jump arbitrarily far forward. o must be a plain
// index variant; a durable store refuses (its log would not cover the
// swapped-in state).
func (s *Store) Reset(o Oracle, epoch uint64) error {
	v, ok := o.(variant)
	if !ok {
		return fmt.Errorf("dynhl: Reset needs a plain index variant, not %T", o)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.durability() != nil {
		return errors.New("dynhl: cannot reset a durable store (its log would not cover the new state)")
	}
	s.tuneRepair(v)
	s.publish(&snapshot{o: v, epoch: epoch})
	return nil
}

// Snapshot returns the current published version as an immutable View.
// This is the one atomic load on the read path: everything reachable from
// the View was fully written before it was published, and nothing will ever
// write to it again.
func (s *Store) Snapshot() View {
	s.metrics.pins.Inc()
	return s.current()
}

// current returns an unpinned view of the current snapshot. The store's
// own reads run through it, so they and a View share one read path; unlike
// Snapshot, it counts no pin.
func (s *Store) current() *view { return &view{sn: s.cur.Load(), m: s.metrics} }

// Epoch returns the current published version number.
func (s *Store) Epoch() uint64 { return s.cur.Load().epoch }

// Unwrap returns the oracle of the current snapshot. Callers touching it
// directly must treat it as frozen — mutate through the Store.
func (s *Store) Unwrap() Oracle { return s.cur.Load().o }

// ApplyResult is what a write resolves to: per-op repair summaries, the
// epoch the batch became visible as, and whether that epoch was shared.
type ApplyResult struct {
	// Summaries reports one repair summary per op of the batch, in op
	// order (insert_vertex summaries carry the new vertex id). Nil when
	// the batch failed.
	Summaries []UpdateSummary
	// Epoch is the epoch the batch published as. On failure it is the
	// epoch the batch was validated against, unchanged by the call.
	Epoch uint64
	// Coalesced reports whether the batch shared its epoch with other
	// concurrent callers — one fork, one repair pass, one WAL record, one
	// fsync and one publish amortised across all of them (see
	// store_queue.go).
	Coalesced bool
}

// ApplyCtx is the canonical write call: it applies a batch of ops as one
// atomic publish and resolves once the batch is visible (and, with a
// durability layer attached, durable). The whole batch becomes visible to
// readers at a single epoch; on failure no state is published — the epoch
// is unchanged and readers keep seeing the pre-batch labelling. An empty
// batch is a no-op and does not bump the epoch.
//
// Concurrent callers are coalesced by the store's group-commit pipeline:
// their batches commit as one combined epoch (Coalesced reports when that
// happened), each caller still owns its result — a caller whose ops fail
// validation is rejected alone, without poisoning the callers it was
// batched with.
//
// A caller whose ctx is done before the committer picks its batch up is
// excised from the queue and gets ctx's error: none of its ops apply. Once
// the batch is taken into a group the write is committed regardless, and
// ApplyCtx waits out the commit to return the epoch the ops published
// under — cancellation can no longer undo a write that is becoming
// durable.
func (s *Store) ApplyCtx(ctx context.Context, ops []Op) (ApplyResult, error) {
	if len(ops) == 0 {
		return ApplyResult{Epoch: s.Epoch()}, nil
	}
	if err := ctx.Err(); err != nil {
		return ApplyResult{Epoch: s.Epoch()}, err
	}
	r := &applyReq{ops: ops, done: make(chan applyOutcome, 1), enq: time.Now()}
	s.enqueue(r)
	select {
	case out := <-r.done:
		return out.res, out.err
	case <-ctx.Done():
		if r.state.CompareAndSwap(reqPending, reqAbandoned) {
			// Excised before the committer claimed the batch: none of its
			// ops were applied.
			s.metrics.abandoned.Inc()
			return ApplyResult{Epoch: s.Epoch()}, ctx.Err()
		}
		// Claimed already: the group is committing. Its outcome — including
		// the epoch the ops published under — is authoritative.
		out := <-r.done
		return out.res, out.err
	}
}

// Apply applies a batch of ops as one atomic publish; see ApplyCtx, which
// it wraps without a cancellation context.
func (s *Store) Apply(ops []Op) ([]UpdateSummary, error) {
	res, err := s.ApplyCtx(context.Background(), ops)
	return res.Summaries, err
}

// Query answers one query against the current snapshot, lock-free.
func (s *Store) Query(u, v uint32) Dist { return s.current().Query(u, v) }

// QueryBatch answers many pairs against one snapshot — the whole batch is
// consistent with a single epoch — fanning large batches across workers.
func (s *Store) QueryBatch(pairs []Pair) []Dist { return s.current().QueryBatch(pairs) }

// QueryBatchCtx is QueryBatch honouring cancellation between chunks.
func (s *Store) QueryBatchCtx(ctx context.Context, pairs []Pair) ([]Dist, error) {
	return s.current().QueryBatchCtx(ctx, pairs)
}

// InsertEdge publishes a one-op batch (see ApplyCtx); under concurrent
// writers it rides a coalesced group commit.
func (s *Store) InsertEdge(u, v uint32, w Dist) (UpdateSummary, error) {
	res, err := s.ApplyCtx(context.Background(), []Op{InsertEdgeOp(u, v, w)})
	if err != nil {
		return UpdateSummary{}, err
	}
	return res.Summaries[0], nil
}

// InsertVertex publishes a one-op batch (see ApplyCtx) and returns the id
// of the vertex the published snapshot gained.
func (s *Store) InsertVertex(arcs []Arc) (uint32, UpdateSummary, error) {
	res, err := s.ApplyCtx(context.Background(), []Op{InsertVertexOp(arcs...)})
	if err != nil {
		return 0, UpdateSummary{}, err
	}
	return *res.Summaries[0].NewVertex, res.Summaries[0], nil
}

// DeleteEdge publishes a one-op batch (see ApplyCtx).
func (s *Store) DeleteEdge(u, v uint32) (UpdateSummary, error) {
	res, err := s.ApplyCtx(context.Background(), []Op{DeleteEdgeOp(u, v)})
	if err != nil {
		return UpdateSummary{}, err
	}
	return res.Summaries[0], nil
}

// DeleteVertex publishes a one-op batch (see ApplyCtx).
func (s *Store) DeleteVertex(v uint32) (UpdateSummary, error) {
	res, err := s.ApplyCtx(context.Background(), []Op{DeleteVertexOp(v)})
	if err != nil {
		return UpdateSummary{}, err
	}
	return res.Summaries[0], nil
}

// NumVertices returns the current snapshot's vertex count.
func (s *Store) NumVertices() int { return s.current().NumVertices() }

// Stats returns the current snapshot's index statistics, stamped with its
// epoch and — when a durability layer is attached — the WAL counters.
func (s *Store) Stats() Stats {
	sn := s.cur.Load()
	st := sn.o.Stats()
	st.Epoch = sn.epoch
	st.RepairWorkers = s.RepairWorkers()
	if d := s.durability(); d != nil {
		ds := d.DurabilityStats()
		st.Durability = &ds
	}
	if r := s.replication(); r != nil {
		rs := r.ReplicationStats()
		st.Replication = &rs
	}
	return st
}

// Verify audits the current snapshot's labelling.
func (s *Store) Verify() error { return s.cur.Load().o.Verify() }

// Save serialises the current snapshot's labelling. Snapshots are
// immutable, so Save runs without blocking writers (a publish during Save
// simply means Save wrote the epoch it started from).
func (s *Store) Save(w io.Writer) error { return s.current().Save(w) }

// Load publishes a snapshot whose labelling was read from r, bumping the
// epoch. The stream must have been saved over the snapshot's current
// graph.
func (s *Store) Load(r io.Reader) error {
	_, err := s.LoadEpoch(r)
	return err
}

// LoadEpoch is Load also reporting the epoch the loaded labelling was
// published as (unchanged on failure).
func (s *Store) LoadEpoch(r io.Reader) (uint64, error) {
	return s.publishLoaded(func(o *oracle) error { return o.Load(r) })
}

// LoadFile publishes a snapshot whose labelling is the label file at path,
// bumping the epoch like Load. Where this host can, the entries are served
// straight out of an mmap of the file, so boot cost stops scaling with
// labelling size; the mapping stays alive for as long as any published
// snapshot may alias its entries and is unmapped by the garbage collector
// after the last such snapshot is released, and the file may be unlinked
// while mapped. Otherwise the file is read onto the heap and attached like
// Load.
func (s *Store) LoadFile(path string) (uint64, error) {
	return s.publishLoaded(func(o *oracle) error { return o.LoadFile(path) })
}

// publishLoaded swaps a labelling into a fork of the current snapshot with
// load and publishes the fork as the next epoch. On failure the fork is
// discarded and the epoch is unchanged.
func (s *Store) publishLoaded(load func(*oracle) error) (uint64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	cur := s.cur.Load()
	work := cur.o.fork()
	if err := load(work.base()); err != nil {
		return cur.epoch, err
	}
	s.tuneRepair(work)
	next := &snapshot{o: work, epoch: cur.epoch + 1}
	if d := s.durability(); d != nil {
		if err := d.Capture(&view{sn: next, m: s.metrics}); err != nil {
			return cur.epoch, fmt.Errorf("dynhl: durability commit of epoch %d: %w", next.epoch, err)
		}
	}
	s.publish(next)
	return next.epoch, nil
}

// view implements View over one published snapshot.
type view struct {
	sn *snapshot
	m  *storeMetrics // owning store's metrics; nil only for bare test views
}

func (v *view) Epoch() uint64 { return v.sn.epoch }

func (v *view) Query(u, w uint32) Dist {
	start := time.Now()
	d := v.sn.o.Query(u, w)
	if v.m != nil {
		v.m.queryDone(v.sn.epoch, u, w, d, start)
	}
	return d
}

func (v *view) QueryBatch(pairs []Pair) []Dist {
	out, _ := v.QueryBatchCtx(context.Background(), pairs)
	return out
}

func (v *view) QueryBatchCtx(ctx context.Context, pairs []Pair) ([]Dist, error) {
	start := time.Now()
	out, err := queryBatchCtx(ctx, v.sn.o, pairs)
	if v.m != nil {
		v.m.batchDone(len(pairs), start)
	}
	return out, err
}

func (v *view) NumVertices() int { return v.sn.o.NumVertices() }

func (v *view) Stats() Stats {
	st := v.sn.o.Stats()
	st.Epoch = v.sn.epoch
	return st
}

// Unwrap returns the snapshot's underlying oracle — how a durability layer
// reaches the concrete variant's extra capabilities (graph access for
// checkpoints) behind a View. Callers must treat it as frozen.
func (v *view) Unwrap() Oracle { return v.sn.o }

func (v *view) Save(w io.Writer) error { return v.sn.o.Save(w) }

// queryBatchCtx answers pairs against o — every QueryBatch in the package
// runs through here — serially for small batches (up to serialBatchMax
// pairs the goroutine hand-off dominates) and across up to batchWorkers()
// workers beyond that. It checks for cancellation between chunks of
// batchChunk pairs (on every worker when fanned); a cancelled batch
// returns ctx.Err() as soon as all workers notice.
func queryBatchCtx(ctx context.Context, o Oracle, pairs []Pair) ([]Dist, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := batchWorkers()
	out := make([]Dist, len(pairs))
	if len(pairs) <= serialBatchMax || workers <= 1 {
		for lo := 0; lo < len(pairs); lo += batchChunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			hi := min(lo+batchChunk, len(pairs))
			for i := lo; i < hi; i++ {
				out[i] = o.Query(pairs[i].U, pairs[i].V)
			}
		}
		return out, nil
	}
	if max := (len(pairs) + batchChunk - 1) / batchChunk; workers > max {
		workers = max
	}
	var wg sync.WaitGroup
	var cancelled atomic.Bool
	stride := (len(pairs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * stride
		hi := min(lo+stride, len(pairs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := lo; c < hi; c += batchChunk {
				if cancelled.Load() {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				ce := min(c+batchChunk, hi)
				for i := c; i < ce; i++ {
					out[i] = o.Query(pairs[i].U, pairs[i].V)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
