package wal

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	dynhl "repro"
	"repro/internal/arena"
)

// Options configures a Durable.
type Options struct {
	// Fsync is the log's sync policy (default SyncAlways).
	Fsync Policy
	// FsyncInterval is the sync cadence under SyncInterval (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery triggers an automatic background checkpoint after
	// that many appended records; 0 means checkpoints are manual (or on
	// Close) only.
	CheckpointEvery int
	// SegmentBytes rotates the active log segment beyond this size
	// (default 64 MiB).
	SegmentBytes int64
	// Logf receives recovery warnings and background-checkpoint failures
	// (default log.Printf).
	Logf func(format string, args ...any)
	// Mmap selects how recovery attaches the checkpoint labelling: MapAuto
	// (the zero value) serves checkpoints out of an mmap on platforms that
	// support it, MapOn insists on trying even where unsupported (the
	// attempt fails and recovery falls back, with a warning), MapOff always
	// decodes a heap copy. Only the load path is affected — the checkpoint
	// format is the same either way.
	Mmap MapMode
}

// MapMode is the Options.Mmap policy for mmap-served checkpoint boots.
type MapMode int

const (
	// MapAuto mmaps checkpoints where the platform supports it.
	MapAuto MapMode = iota
	// MapOn attempts the mapped boot unconditionally.
	MapOn
	// MapOff always takes the copy-in load.
	MapOff
)

// Enabled reports whether this mode wants the mapped paths attempted
// (how commands resolve their -mmap flag against the platform).
func (m MapMode) Enabled() bool {
	switch m {
	case MapOn:
		return true
	case MapOff:
		return false
	default:
		return arena.Supported()
	}
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// ErrNoState reports a Recover on a directory holding no checkpoint.
var ErrNoState = errors.New("wal: no durable state in directory")

// Durable ties a Store to its write-ahead log and checkpoints: it is the
// dynhl.Durability layer making every published epoch durable before it is
// visible, and the admin surface (Checkpoint, stats) the HTTP service and
// commands expose. Obtain one with Create, Recover or Open; release it with
// Close, which takes a final checkpoint so the next boot replays nothing.
type Durable struct {
	dir   string
	store *dynhl.Store
	log   *Log
	opts  Options

	ckptMu    sync.Mutex // serialises checkpoints
	ckptEpoch atomic.Uint64
	sinceCkpt atomic.Uint64
	replayed  uint64 // records the recovery that opened this Durable replayed

	// subMu guards subs, the live SubscribeCommits registrations; every
	// send and close of a subscriber channel happens under it (see tail.go).
	subMu sync.Mutex
	subs  map[*subscriber]struct{}

	ckptc  chan uint64 // automatic checkpoint trigger: the epoch that fired it
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// metrics is the layer's observability surface (metrics.go), set once
	// in attach before the store or the background worker can run.
	metrics *walMetrics
}

func walDir(dir string) string { return filepath.Join(dir, "wal") }

// HasState reports whether dir holds recoverable state (any checkpoint).
func HasState(dir string) bool {
	cks, err := listCheckpoints(dir)
	return err == nil && len(cks) > 0
}

// Create initialises dir for a fresh oracle: it writes the base checkpoint
// at the store's current epoch — the floor every future recovery builds
// on — opens the log, and attaches. o may be a plain oracle or an existing
// Store; it must support checkpointing (labelling and graph serialisation,
// currently the undirected variant), else errors.ErrUnsupported. A
// directory that already has state is refused — Recover or Open it instead.
func Create(dir string, o dynhl.Oracle, opts Options) (*Durable, error) {
	store := dynhl.NewStore(o)
	src, ok := asCheckpointable(store.Unwrap())
	if !ok {
		return nil, fmt.Errorf("wal: this oracle variant cannot be made durable (needs labelling and graph serialisation): %w", errors.ErrUnsupported)
	}
	if HasState(dir) {
		return nil, fmt.Errorf("wal: %s already holds durable state; use Recover or Open", dir)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	epoch := store.Epoch()
	if _, err := writeCheckpoint(dir, epoch, src); err != nil {
		return nil, err
	}
	return attach(dir, store, epoch, 0, opts)
}

// Open is the boot entry point: Recover when dir holds state, else build a
// fresh oracle and Create.
func Open(dir string, build func() (dynhl.Oracle, error), opts Options) (*Durable, error) {
	if HasState(dir) {
		return Recover(dir, opts)
	}
	o, err := build()
	if err != nil {
		return nil, err
	}
	return Create(dir, o, opts)
}

// attach wires a recovered or fresh store to its log and starts the
// background checkpointer.
func attach(dir string, store *dynhl.Store, ckptEpoch uint64, replayed uint64, opts Options) (*Durable, error) {
	opts = opts.withDefaults()
	// A fresh segment past everything already on disk: recovery never
	// appends to a file it also truncated.
	lg, err := openLog(walDir(dir), store.Epoch()+1, store.Epoch(), opts.Fsync, opts.FsyncInterval, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	d := &Durable{
		dir:      dir,
		store:    store,
		log:      lg,
		opts:     opts,
		replayed: replayed,
		ckptc:    make(chan uint64, 1),
		stop:     make(chan struct{}),
	}
	d.ckptEpoch.Store(ckptEpoch)
	d.metrics = newWALMetrics(d)
	lg.m = d.metrics
	if err := store.AttachDurability(d); err != nil {
		lg.Close()
		return nil, err
	}
	d.wg.Add(1)
	go d.run()
	return d, nil
}

// Store returns the durable store; serve queries and apply updates through
// it exactly as with a plain Store.
func (d *Durable) Store() *dynhl.Store { return d.store }

// Epoch returns the store's current published epoch.
func (d *Durable) Epoch() uint64 { return d.store.Epoch() }

// Replayed returns how many log records the recovery that opened this
// Durable replayed (zero for a fresh directory).
func (d *Durable) Replayed() uint64 { return d.replayed }

// Append implements dynhl.Durability: the record for epoch is appended (and
// under SyncAlways durable) before the store publishes it. The store
// repairs the labelling while the append runs and publishes once both are
// done, so a successful Append is always followed by the publish of its
// epoch.
func (d *Durable) Append(epoch uint64, ops []dynhl.Op) error {
	if d.closed.Load() {
		return errClosed
	}
	size, err := d.log.Append(epoch, ops)
	if err != nil {
		return err
	}
	d.notifyCommit(TailRecord{Epoch: epoch, Ops: ops, Size: size})
	if every := d.opts.CheckpointEvery; every > 0 && d.sinceCkpt.Add(1) >= uint64(every) {
		d.sinceCkpt.Store(0)
		select {
		case d.ckptc <- epoch:
		default:
		}
	}
	return nil
}

// Capture implements dynhl.Durability: an epoch published without an op
// batch (Store.Load) cannot be replayed from ops, so it is captured as a
// synchronous checkpoint of the incoming snapshot instead. That checkpoint
// is then the only route across its epoch: older checkpoints cannot bridge
// the record-less gap, so should it ever be damaged, recovery refuses
// rather than falling back past it.
func (d *Durable) Capture(next dynhl.View) error {
	if d.closed.Load() {
		return errClosed
	}
	epoch := next.Epoch()
	d.opts.Logf("wal: epoch %d published without ops (Load): captured as a checkpoint; older checkpoints cannot recover past it", epoch)
	if _, err := d.checkpointView(next); err != nil {
		return err
	}
	// A record-less epoch cannot be replayed; the nil-Ops notice tells
	// subscribers to fetch the fresh checkpoint instead.
	d.notifyCommit(TailRecord{Epoch: epoch})
	return nil
}

// Commit makes epoch durable outside a Store's pipeline: Append when ops
// holds the batch that produced it, Capture of next when ops is nil.
func (d *Durable) Commit(epoch uint64, ops []dynhl.Op, next dynhl.View) error {
	if ops == nil {
		return d.Capture(next)
	}
	return d.Append(epoch, ops)
}

var errClosed = errors.New("wal: durable store is closed")

// Checkpoint writes the current snapshot's full state, rotates the log and
// removes segments and checkpoints it supersedes. It runs against a pinned
// immutable snapshot, so writers are never blocked. Returns the epoch the
// checkpoint captured.
func (d *Durable) Checkpoint() (uint64, error) {
	return d.checkpointView(d.store.Snapshot())
}

func (d *Durable) checkpointView(v dynhl.View) (uint64, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	epoch := v.Epoch()
	if cur := d.ckptEpoch.Load(); epoch <= cur {
		return cur, nil // already covered by a newer or equal checkpoint
	}
	src, ok := asCheckpointable(v)
	if !ok {
		return 0, fmt.Errorf("wal: snapshot cannot be checkpointed: %w", errors.ErrUnsupported)
	}
	start := time.Now()
	// Records past the checkpoint must not ride only in the page cache
	// while the files below them disappear.
	if err := d.log.Sync(); err != nil {
		return 0, err
	}
	if _, err := writeCheckpoint(d.dir, epoch, src); err != nil {
		return 0, err
	}
	d.metrics.checkpoint.Since(start)
	d.metrics.checkpoints.Inc()
	// The checkpoint is durable: from here the operation has succeeded and
	// must report so — a caller like a Load commit would otherwise abort
	// its publish while checkpoint-<epoch> stays on disk, shadowing
	// whatever the store really publishes as that epoch next. Rotation,
	// pruning and truncation are housekeeping; failures only delay
	// reclaiming space and are retried by the next checkpoint.
	d.ckptEpoch.Store(epoch)
	d.sinceCkpt.Store(0)
	if err := d.log.Rotate(); err != nil {
		d.opts.Logf("wal: post-checkpoint log rotation failed (truncation deferred): %v", err)
		return epoch, nil
	}
	keepFrom, err := pruneCheckpoints(d.dir)
	if err != nil {
		d.opts.Logf("wal: pruning checkpoints failed (truncation deferred): %v", err)
		return epoch, nil
	}
	if err := d.log.Truncate(keepFrom); err != nil {
		d.opts.Logf("wal: truncating covered segments failed (retried at the next checkpoint): %v", err)
	}
	return epoch, nil
}

// run is the background worker: automatic checkpoints and, under
// SyncInterval, the idle-tail flusher.
func (d *Durable) run() {
	defer d.wg.Done()
	var flush <-chan time.Time
	if d.opts.Fsync == SyncInterval {
		t := time.NewTicker(d.opts.FsyncInterval)
		defer t.Stop()
		flush = t.C
	}
	for {
		select {
		case <-d.stop:
			return
		case epoch := <-d.ckptc:
			// Append fires the trigger before its epoch publishes, and a
			// successful Append always publishes: wait for that, so the
			// checkpoint covers the records that triggered it.
			d.store.WaitEpoch(context.Background(), epoch)
			if _, err := d.Checkpoint(); err != nil {
				d.opts.Logf("wal: background checkpoint: %v", err)
			}
		case <-flush:
			if err := d.log.Sync(); err != nil {
				d.opts.Logf("wal: background fsync: %v", err)
			}
		}
	}
}

// Close shuts the durability layer down cleanly: further publishes are
// refused, a final checkpoint captures the last epoch, and the log is
// synced and closed. After Close the next boot recovers instantly (nothing
// to replay). Closing twice is a no-op.
func (d *Durable) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stop)
	d.wg.Wait()
	d.closeSubscribers()
	_, cerr := d.Checkpoint()
	serr := d.log.Close()
	return errors.Join(cerr, serr)
}

// DurabilityStats implements dynhl.Durability, surfacing the WAL counters
// in Store.Stats and the HTTP endpoints.
func (d *Durable) DurabilityStats() dynhl.DurabilityStats {
	var st dynhl.DurabilityStats
	d.log.statsInto(&st)
	st.CheckpointEpoch = d.ckptEpoch.Load()
	if st.CheckpointEpoch > st.DurableEpoch {
		// A checkpoint is durability too: everything at or below it
		// survives without its log records.
		st.DurableEpoch = st.CheckpointEpoch
	}
	st.Replayed = d.replayed
	return st
}
