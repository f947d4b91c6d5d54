package repl

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	dynhl "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Leader accepts follower connections and streams the durable store's
// checkpoint images and log records to them. It implements
// dynhl.Replication, so attaching it (StartLeader does) surfaces follower
// count and the slowest follower's lag in Store.Stats.
type Leader struct {
	d     *wal.Durable
	store *dynhl.Store
	opts  Options
	ln    net.Listener

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool

	shippedRecords atomic.Uint64
	shippedBytes   atomic.Uint64
	bootstraps     atomic.Uint64
	resumes        atomic.Uint64
	acksReceived   atomic.Uint64
	lastAck        atomic.Int64 // unix nanos of the newest follower ack

	reg *obs.Registry // metrics (metrics.go), built at StartLeader

	wg sync.WaitGroup
}

// session is one connected follower.
type session struct {
	conn  net.Conn
	acked atomic.Uint64
}

// StartLeader listens on addr and serves replication to any follower that
// connects, streaming d's checkpoints and log. It attaches itself to d's
// store as the dynhl.Replication layer. Close releases the listener and
// every follower connection.
func StartLeader(addr string, d *wal.Durable, opts Options) (*Leader, error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Leader{
		d:        d,
		store:    d.Store(),
		opts:     opts,
		ln:       ln,
		sessions: make(map[*session]struct{}),
	}
	l.reg = newLeaderMetrics(l)
	if err := l.store.AttachReplication(l); err != nil {
		ln.Close()
		return nil, err
	}
	l.wg.Add(1)
	go l.accept()
	return l, nil
}

// Addr returns the address the leader is listening on — the value to hand
// followers, resolved even when StartLeader was given port 0.
func (l *Leader) Addr() string { return l.ln.Addr().String() }

// accept admits followers until the listener closes.
func (l *Leader) accept() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		s := &session{conn: conn}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.sessions[s] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serve(s)
	}
}

// serve runs one follower session: hello, bootstrap or resume, then stream
// until the connection or the subscription drops. Any exit just ends the
// session — the follower reconnects and resumes from wherever it got to.
func (l *Leader) serve(s *session) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		delete(l.sessions, s)
		l.mu.Unlock()
		s.conn.Close()
	}()

	if err := s.conn.SetReadDeadline(time.Now().Add(l.opts.Timeout)); err != nil {
		return
	}
	typ, payload, err := readFrame(s.conn)
	if err != nil || typ != frameHello || len(payload) != 9 {
		l.opts.Logf("repl: leader: bad hello from %s: %v", s.conn.RemoteAddr(), err)
		return
	}
	have, helloEpoch := payload[0] == 1, binary.LittleEndian.Uint64(payload[1:])
	s.conn.SetReadDeadline(time.Time{})

	// Subscribe before reading the log: every record not yet on disk at the
	// TailFrom below is then guaranteed to arrive on sub (or sub is closed
	// by overflow and the session ends — never a silent gap).
	sub, cancel := l.d.SubscribeCommits(l.opts.QueueLen)
	defer cancel()

	// The ack reader doubles as the connection monitor: when the follower
	// goes away its read fails, and closing the connection here makes the
	// streaming loop's next write fail promptly too.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer s.conn.Close()
		for {
			typ, payload, err := readFrame(s.conn)
			if err != nil {
				return
			}
			if typ != frameAck {
				continue
			}
			if epoch, err := decodeU64(payload, "ack"); err == nil {
				s.acked.Store(epoch)
				l.acksReceived.Add(1)
				l.lastAck.Store(time.Now().UnixNano())
			}
		}
	}()
	defer func() { s.conn.Close(); <-readerDone }()

	lastSent, err := l.start(s, have, helloEpoch)
	if err != nil {
		l.opts.Logf("repl: leader: session with %s: %v", s.conn.RemoteAddr(), err)
		l.sendError(s, err)
		return
	}

	hb := time.NewTicker(l.opts.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case rec, ok := <-sub:
			if !ok {
				// Overflow (this follower fell QueueLen commits behind) or
				// the durable store closed; either way the follower
				// reconnects and resumes.
				l.opts.Logf("repl: leader: dropping %s: subscription lost (follower too slow or leader closing)", s.conn.RemoteAddr())
				return
			}
			if rec.Ops == nil {
				// A Load epoch has no replayable record; its state exists
				// only as the checkpoint Capture took, so ship that.
				if lastSent, err = l.sendSnapshot(s); err != nil {
					return
				}
				continue
			}
			if rec.Epoch <= lastSent {
				continue // already covered by the disk tail
			}
			if rec.Epoch != lastSent+1 {
				l.opts.Logf("repl: leader: dropping %s: commit gap (%d after %d)", s.conn.RemoteAddr(), rec.Epoch, lastSent)
				return
			}
			if err := l.sendRecord(s, rec); err != nil {
				return
			}
			lastSent = rec.Epoch
		case <-hb.C:
			if err := writeFrame(s.conn, l.opts.Timeout, frameHeartbeat, u64Payload(l.store.Epoch())); err != nil {
				return
			}
		}
	}
}

// start brings a fresh session to the tip of the log: resume from the
// follower's epoch when the log still covers it, else a snapshot, then the
// disk tail. It returns the last epoch the follower now has. The retry
// loop covers the benign race where a checkpoint truncates the log between
// choosing an epoch and opening the tail.
func (l *Leader) start(s *session, have bool, helloEpoch uint64) (uint64, error) {
	for attempt := 0; ; attempt++ {
		var lastSent uint64
		// Records above the newest checkpoint are guaranteed present and
		// replayable (a record-less Load epoch always coincides with a
		// checkpoint at that epoch), so that is the resume floor.
		if have && helloEpoch >= l.d.CheckpointEpoch() && helloEpoch <= l.store.Epoch() {
			lastSent = helloEpoch
			l.resumes.Add(1)
		} else {
			epoch, err := l.sendSnapshot(s)
			if err != nil {
				return 0, err
			}
			lastSent = epoch
		}
		tr, err := l.d.TailFrom(lastSent + 1)
		if err == nil {
			return l.drainTail(s, tr, lastSent)
		}
		if !errors.Is(err, wal.ErrEpochTruncated) || attempt >= 2 {
			return 0, err
		}
		have = false // a concurrent checkpoint moved the floor: re-bootstrap
	}
}

// drainTail streams a disk tail, returning the last epoch shipped.
func (l *Leader) drainTail(s *session, tr *wal.TailReader, lastSent uint64) (uint64, error) {
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return lastSent, nil
		}
		if err != nil {
			return 0, err
		}
		if rec.Epoch <= lastSent {
			continue
		}
		if err := l.sendRecord(s, rec); err != nil {
			return 0, err
		}
		lastSent = rec.Epoch
	}
}

// sendSnapshot ships the newest checkpoint image and returns its epoch.
func (l *Leader) sendSnapshot(s *session) (uint64, error) {
	epoch, img, err := l.d.CheckpointImage()
	if err != nil {
		return 0, err
	}
	if err := writeFrame(s.conn, l.opts.Timeout, frameSnapshot, img); err != nil {
		return 0, err
	}
	l.bootstraps.Add(1)
	l.shippedBytes.Add(uint64(len(img)))
	return epoch, nil
}

// sendRecord ships one op-batch record.
func (l *Leader) sendRecord(s *session, rec wal.TailRecord) error {
	payload := make([]byte, 16, 16+8*len(rec.Ops))
	binary.LittleEndian.PutUint64(payload, l.store.Epoch())
	binary.LittleEndian.PutUint64(payload[8:], rec.Epoch)
	payload, err := dynhl.AppendOps(payload, rec.Ops)
	if err != nil {
		return err
	}
	if err := writeFrame(s.conn, l.opts.Timeout, frameRecords, payload); err != nil {
		return err
	}
	l.shippedRecords.Add(1)
	l.shippedBytes.Add(uint64(len(payload)))
	return nil
}

// sendError best-effort ships a terminal error to the follower, so its log
// says why the leader hung up.
func (l *Leader) sendError(s *session, err error) {
	_ = writeFrame(s.conn, l.opts.Timeout, frameError, []byte(err.Error()))
}

// ReplicationStats implements dynhl.Replication: the leader's role, its
// follower count, and how far the slowest connected follower's acks trail
// the published epoch.
func (l *Leader) ReplicationStats() dynhl.ReplicationStats {
	st := dynhl.ReplicationStats{
		Role:           "leader",
		Ready:          true,
		LeaderEpoch:    l.store.Epoch(),
		ShippedRecords: l.shippedRecords.Load(),
		ShippedBytes:   l.shippedBytes.Load(),
		Bootstraps:     l.bootstraps.Load(),
		Resumes:        l.resumes.Load(),
	}
	if nanos := l.lastAck.Load(); nanos != 0 {
		st.LastContact = time.Unix(0, nanos)
	}
	minAck := uint64(math.MaxUint64)
	l.mu.Lock()
	st.Connected = !l.closed
	st.Followers = len(l.sessions)
	for s := range l.sessions {
		if a := s.acked.Load(); a < minAck {
			minAck = a
		}
	}
	l.mu.Unlock()
	if st.Followers > 0 && st.LeaderEpoch > minAck {
		st.LagEpochs = st.LeaderEpoch - minAck
	}
	return st
}

// Close stops accepting followers and drops every session. The durable
// store itself is untouched — it keeps serving and logging locally.
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for s := range l.sessions {
		s.conn.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

var _ dynhl.Replication = (*Leader)(nil)
