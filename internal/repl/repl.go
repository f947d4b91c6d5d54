// Package repl is the replication subsystem that scales reads across
// machines: a leader streams its write-ahead log to follower stores that
// replay every op batch under the leader's own epoch numbers, so any
// replica answers any query — lock-free, from the same published version
// the leader would have served — and a client that saw epoch N from a
// write can read its write on any follower via dynhl.Store.WaitEpoch.
//
// The leader piggybacks entirely on the durability subsystem: bootstrap is
// the newest checkpoint image (internal/wal's on-disk format, shipped
// verbatim), catch-up is the log tail (wal.TailReader), and live streaming
// is the commit subscription (wal.SubscribeCommits) — replication adds no
// second write path and no second serialisation format. A follower
// bootstraps through the same wal.RebuildImage/dynhl.LoadIndex route a
// crash recovery takes, then replays shipped batches through
// Store.ApplyCtx; because epochs advance by exactly one per publish on
// both sides, leader and follower publish identical epoch numbers for
// identical states.
//
// Wire protocol, over one TCP connection per follower, each frame
// length-prefixed:
//
//	u32 payloadLen | u8 type | payload
//
//	hello     (follower→leader)  u8 have | u64 epoch
//	snapshot  (leader→follower)  checkpoint image (wal file bytes)
//	records   (leader→follower)  u64 leaderEpoch | u64 epoch | op batch
//	heartbeat (leader→follower)  u64 leaderEpoch
//	ack       (follower→leader)  u64 epoch
//	error     (leader→follower)  utf-8 message
//
// The follower opens with hello carrying its current epoch (have=0 when it
// holds no state or wants a fresh image). The leader resumes from the log
// when the follower's epoch is at or past the newest checkpoint — records
// above it are guaranteed replayable — and ships a snapshot otherwise,
// including when the log was truncated past the resume point. An epoch the
// leader published without ops (Store.Load) has no replayable record; the
// subscription notice for it makes the leader ship a fresh snapshot
// mid-stream. Slow followers are cut off by bounded queues on both sides
// (the leader's subscription buffer, the follower's apply queue) and
// reconnect with resume; acks flow back so the leader's stats expose the
// slowest follower's lag, and heartbeats keep the follower's view of the
// leader epoch fresh between writes.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"repro/internal/wal"
)

// Frame types. Values are part of the wire protocol.
const (
	frameHello     = 1
	frameSnapshot  = 2
	frameRecords   = 3
	frameHeartbeat = 4
	frameAck       = 5
	frameError     = 6
)

// maxFrameBytes bounds one frame; snapshot frames carry whole checkpoint
// images, so the cap is generous. A length beyond it is protocol damage,
// not an allocation request.
const maxFrameBytes = 1 << 30

// Options tunes both ends of a replication link. The zero value is ready
// for use.
type Options struct {
	// Heartbeat is the leader's idle-stream heartbeat cadence
	// (default 500ms).
	Heartbeat time.Duration
	// Timeout bounds every network write, the dial, and the leader's wait
	// for a follower's hello (default 10s).
	Timeout time.Duration
	// QueueLen is the depth of the leader's per-follower commit
	// subscription and the follower's apply queue (default 1024). A
	// follower that falls further behind is disconnected and resumes via
	// reconnect.
	QueueLen int
	// ReconnectMin/ReconnectMax bound the follower's reconnect backoff
	// (defaults 100ms and 3s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// Logf receives connection lifecycle and failure messages
	// (default log.Printf).
	Logf func(format string, args ...any)
	// Mmap selects how the follower attaches a shipped checkpoint image:
	// under wal.MapAuto (the zero value) and wal.MapOn the image is
	// spilled to an unlinked temp file and the labels served out of an
	// mmap of it, so bootstrap does not hold a heap copy of the entries;
	// wal.MapOff decodes to the heap. Leader side ignores it.
	Mmap wal.MapMode
	// RepairWorkers bounds the per-landmark fan-out of the follower's
	// replay repairs (0 = GOMAXPROCS, 1 = serial; see
	// dynhl.Options.RepairWorkers). Leader side ignores it.
	RepairWorkers int
}

func (o Options) withDefaults() Options {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 100 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 3 * time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// writeFrame sends one frame under a write deadline.
func writeFrame(conn net.Conn, timeout time.Duration, typ byte, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("repl: %d-byte frame exceeds the %d-byte cap", len(payload), maxFrameBytes)
	}
	buf := make([]byte, 5, 5+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	buf[4] = typ
	buf = append(buf, payload...)
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	_, err := conn.Write(buf)
	return err
}

// readFrame reads one frame. The caller sets any read deadline it wants.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("repl: implausible %d-byte frame", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// errRemote wraps an error frame's message received from the peer.
var errRemote = errors.New("repl: remote error")

func u64Payload(v uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return buf[:]
}

func decodeU64(payload []byte, what string) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("repl: %d-byte %s frame, want 8", len(payload), what)
	}
	return binary.LittleEndian.Uint64(payload), nil
}
