package repl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	dynhl "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Follower maintains a read replica of a leader's store: it connects,
// bootstraps from a shipped checkpoint image, replays every op batch the
// leader publishes under the leader's own epoch numbers, and reconnects
// with resume whenever the link drops. The replica store serves the full
// lock-free read API; Store returns nil until the first bootstrap lands.
// It implements dynhl.Replication and attaches itself to the replica store
// it creates, so lag shows up in Store.Stats.
type Follower struct {
	leaderAddr string
	opts       Options

	store       atomic.Pointer[dynhl.Store]
	ready       atomic.Bool
	connected   atomic.Bool
	leaderEpoch atomic.Uint64
	lastContact atomic.Int64 // unix nanos of the last frame from the leader
	queueBytes  atomic.Int64 // received-but-unapplied record bytes

	// forceSnapshot makes the next hello request a full image — set when an
	// apply failed or a gap appeared, cleared when a snapshot lands.
	forceSnapshot atomic.Bool

	reconnects   atomic.Uint64 // sessions dialled after the first
	rebootstraps atomic.Uint64 // images applied over an existing store
	acksSent     atomic.Uint64

	reg *obs.Registry // metrics (metrics.go), built at StartFollower

	connMu sync.Mutex
	conn   net.Conn

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartFollower begins replicating from the leader at leaderAddr. It
// returns immediately; the replica bootstraps in the background (WaitReady
// blocks until it has) and keeps reconnecting with backoff until Close.
func StartFollower(leaderAddr string, opts Options) *Follower {
	f := &Follower{
		leaderAddr: leaderAddr,
		opts:       opts.withDefaults(),
		stop:       make(chan struct{}),
	}
	f.reg = newFollowerMetrics(f)
	f.wg.Add(1)
	go f.run()
	return f
}

// Store returns the replica store, nil until the first bootstrap completes.
// The same Store stays valid across reconnects and re-bootstraps.
func (f *Follower) Store() *dynhl.Store { return f.store.Load() }

// Leader returns the leader's replication address.
func (f *Follower) Leader() string { return f.leaderAddr }

// WaitReady blocks until the replica has bootstrapped and serves reads, or
// ctx is done.
func (f *Follower) WaitReady(ctx context.Context) error {
	for !f.ready.Load() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-f.stop:
			return errors.New("repl: follower closed before it became ready")
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// run is the reconnect loop: one session after another, backing off on
// failure and resetting the backoff after any session that got as far as a
// working stream.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.opts.ReconnectMin
	for attempt := 0; ; attempt++ {
		select {
		case <-f.stop:
			return
		default:
		}
		if attempt > 0 {
			f.reconnects.Add(1)
		}
		err := f.session()
		f.connected.Store(false)
		select {
		case <-f.stop:
			return
		default:
		}
		if err != nil {
			f.opts.Logf("repl: follower of %s: %v (reconnecting in %v)", f.leaderAddr, err, backoff)
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > f.opts.ReconnectMax {
			backoff = f.opts.ReconnectMax
		}
	}
}

// item is one queued frame on its way from the receive loop to the apply
// goroutine.
type item struct {
	img   []byte // snapshot image, nil for a records item
	epoch uint64
	ops   []dynhl.Op
	size  int
}

// session runs one connection: hello, then receive frames into the bounded
// apply queue while a single applier goroutine replays them and writes
// acks back. It returns when the connection drops, an apply fails (the
// next session re-bootstraps), or Close fires.
func (f *Follower) session() error {
	conn, err := net.DialTimeout("tcp", f.leaderAddr, f.opts.Timeout)
	if err != nil {
		return err
	}
	// Register the connection and check for Close in one critical section:
	// a Close that ran during the dial found no connection to drop, and
	// would otherwise leave this session reading heartbeats forever.
	f.connMu.Lock()
	select {
	case <-f.stop:
		f.connMu.Unlock()
		conn.Close()
		return errors.New("repl: follower closed")
	default:
	}
	f.conn = conn
	f.connMu.Unlock()
	defer func() {
		f.connMu.Lock()
		f.conn = nil
		f.connMu.Unlock()
		conn.Close()
	}()

	hello := make([]byte, 9)
	st := f.store.Load()
	if st != nil && !f.forceSnapshot.Load() {
		hello[0] = 1
		binary.LittleEndian.PutUint64(hello[1:], st.Epoch())
	}
	if err := writeFrame(conn, f.opts.Timeout, frameHello, hello); err != nil {
		return err
	}
	f.connected.Store(true)

	queue := make(chan item, f.opts.QueueLen)
	applyErr := make(chan error, 1)
	var applyWG sync.WaitGroup
	applyWG.Add(1)
	go func() {
		defer applyWG.Done()
		if err := f.apply(conn, queue); err != nil {
			applyErr <- err
			conn.Close() // unblock the receive loop
		}
	}()
	recvErr := f.receive(conn, queue)
	close(queue)
	applyWG.Wait()
	// Whatever is still queued was never applied; it no longer counts as
	// backlog — the next session re-ships it.
	f.queueBytes.Store(0)
	select {
	case err := <-applyErr:
		return err
	default:
		return recvErr
	}
}

// receive reads frames and feeds the apply queue until the connection
// fails. Heartbeats are absorbed here — only state-bearing frames queue.
func (f *Follower) receive(conn net.Conn, queue chan<- item) error {
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return fmt.Errorf("repl: link lost: %w", err)
		}
		f.lastContact.Store(time.Now().UnixNano())
		var it item
		switch typ {
		case frameSnapshot:
			it = item{img: payload, size: len(payload)}
		case frameRecords:
			if len(payload) < 16 {
				return fmt.Errorf("repl: short records frame (%d bytes)", len(payload))
			}
			f.observeLeader(binary.LittleEndian.Uint64(payload))
			epoch := binary.LittleEndian.Uint64(payload[8:])
			ops, used, err := dynhl.DecodeOps(payload[16:])
			if err != nil || used != len(payload)-16 {
				return fmt.Errorf("repl: bad op batch for epoch %d: %v", epoch, err)
			}
			it = item{epoch: epoch, ops: ops, size: len(payload)}
		case frameHeartbeat:
			epoch, err := decodeU64(payload, "heartbeat")
			if err != nil {
				return err
			}
			f.observeLeader(epoch)
			continue
		case frameError:
			return fmt.Errorf("%w: %s", errRemote, payload)
		default:
			return fmt.Errorf("repl: unknown frame type %d", typ)
		}
		f.queueBytes.Add(int64(it.size))
		select {
		case queue <- it:
		case <-f.stop:
			return errors.New("repl: follower closed")
		}
	}
}

// observeLeader advances the follower's view of the leader's published
// epoch (it never goes backwards — frames can carry a stale reading).
func (f *Follower) observeLeader(epoch uint64) {
	for {
		cur := f.leaderEpoch.Load()
		if epoch <= cur || f.leaderEpoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// apply is the single applier: it replays queued items into the replica
// store in order and acks each applied epoch back to the leader (it is the
// connection's only writer after the hello). An apply error poisons the
// session and flags the next one to re-bootstrap; a failed ack write is
// just a link error — the state is fine and the next session resumes.
func (f *Follower) apply(conn net.Conn, queue <-chan item) error {
	for it := range queue {
		ack, send, err := f.applyOne(it)
		if err != nil {
			f.forceSnapshot.Store(true)
			return err
		}
		f.queueBytes.Add(-int64(it.size))
		if send {
			if err := writeFrame(conn, f.opts.Timeout, frameAck, u64Payload(ack)); err != nil {
				return err
			}
			f.acksSent.Add(1)
		}
	}
	return nil
}

// applyOne replays one queued item into the replica store, returning the
// epoch to acknowledge.
func (f *Follower) applyOne(it item) (ack uint64, send bool, err error) {
	if it.img != nil {
		idx, epoch, err := wal.RebuildImage(it.img)
		if err != nil {
			return 0, false, fmt.Errorf("repl: shipped checkpoint image: %w", err)
		}
		st := f.store.Load()
		if st == nil {
			st = dynhl.NewStoreAt(idx, epoch)
			st.SetRepairWorkers(f.opts.RepairWorkers)
			if err := st.AttachReplication(f); err != nil {
				return 0, false, err
			}
			f.store.Store(st)
		} else if err := st.Reset(idx, epoch); err != nil {
			return 0, false, err
		} else {
			f.rebootstraps.Add(1)
		}
		f.observeLeader(epoch)
		f.forceSnapshot.Store(false)
		f.ready.Store(true)
		return epoch, true, nil
	}
	st := f.store.Load()
	if st == nil {
		return 0, false, fmt.Errorf("repl: records for epoch %d before any snapshot", it.epoch)
	}
	if it.epoch <= st.Epoch() {
		return 0, false, nil // duplicate from a reconnect race; already applied
	}
	if it.epoch != st.Epoch()+1 {
		return 0, false, fmt.Errorf("repl: records gap: epoch %d shipped where %d was expected", it.epoch, st.Epoch()+1)
	}
	if res, err := st.ApplyCtx(context.Background(), it.ops); err != nil {
		return 0, false, fmt.Errorf("repl: replaying epoch %d: %w", it.epoch, err)
	} else if res.Epoch != it.epoch {
		return 0, false, fmt.Errorf("repl: replay published epoch %d, want %d", res.Epoch, it.epoch)
	}
	f.observeLeader(it.epoch)
	return it.epoch, true, nil
}

// bounce drops the current connection (a test hook): the follower
// reconnects and resumes as if the network blipped.
func (f *Follower) bounce() {
	f.connMu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.connMu.Unlock()
}

// ReplicationStats implements dynhl.Replication: the follower's link state
// and how far it trails the leader in epochs and unapplied bytes.
func (f *Follower) ReplicationStats() dynhl.ReplicationStats {
	st := dynhl.ReplicationStats{
		Role:        "follower",
		Leader:      f.leaderAddr,
		Connected:   f.connected.Load(),
		Ready:       f.ready.Load(),
		LeaderEpoch: f.leaderEpoch.Load(),
	}
	if nanos := f.lastContact.Load(); nanos != 0 {
		st.LastContact = time.Unix(0, nanos)
	}
	if b := f.queueBytes.Load(); b > 0 {
		st.LagBytes = uint64(b)
	}
	var applied uint64
	if s := f.store.Load(); s != nil {
		applied = s.Epoch()
	}
	if st.LeaderEpoch > applied {
		st.LagEpochs = st.LeaderEpoch - applied
	}
	return st
}

// Close stops replicating and drops the connection. The replica store (if
// bootstrapped) remains valid and keeps serving its last applied epoch.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	f.bounce()
	f.wg.Wait()
	return nil
}

var _ dynhl.Replication = (*Follower)(nil)
