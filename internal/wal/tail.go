package wal

import (
	"errors"
	"fmt"
	"io"
	"os"

	dynhl "repro"
	"repro/internal/arena"
)

// ErrEpochTruncated reports a tail read asking for epochs the log no longer
// holds: checkpointing truncated the segments that carried them. It is a
// recoverable condition distinct from I/O errors or corruption — the caller
// falls back to bootstrapping from a checkpoint image instead of the log.
var ErrEpochTruncated = errors.New("wal: requested epochs truncated from the log")

// TailRecord is one log record surfaced by a TailReader or a commit
// subscription: the op batch that published Epoch, and the encoded frame
// size it occupies in the log. Ops is nil only on subscription notices for
// an epoch published without ops (Store.Load) — such epochs never have log
// records and are captured as checkpoints instead.
type TailRecord struct {
	Epoch uint64
	Ops   []dynhl.Op
	Size  int
}

// TailReader iterates the log records with epochs >= the requested floor,
// in epoch order. It reads over the segment listing captured at open time:
// records appended after that are not (reliably) seen — pair it with
// SubscribeCommits, subscribing first, to hand off from disk catch-up to
// live streaming without a gap. A torn record at the very end of the log is
// end-of-tail (a live append in progress, or a crash's), not an error, and
// tornTail says where it starts; a segment removed mid-read by a concurrent
// checkpoint truncation reports ErrEpochTruncated. Recovery replays the
// log through the same reader.
type TailReader struct {
	from uint64
	segs []segment
	i    int    // next segment to load
	data []byte // current segment's bytes
	off  int
	path string // current segment's path, for error text
	torn bool   // the tail ended in a torn record at off
}

// OpenTail opens a tail over the log directory dir (the "wal" subdirectory
// of a durable data directory) for records with epochs >= from. It reports
// ErrEpochTruncated immediately when the log's oldest surviving segment
// starts past from — the records were truncated away and only a checkpoint
// can bridge the gap. Callers with a live Durable should prefer
// Durable.TailFrom, which syncs the log first.
func OpenTail(dir string, from uint64) (*TailReader, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return &TailReader{from: from}, nil // no log yet: empty tail
		}
		return nil, err
	}
	// Segments before the one that may contain from hold only older epochs.
	start := 0
	for start+1 < len(segs) && segs[start+1].first <= from {
		start++
	}
	if len(segs) > 0 && segs[start].first > from {
		return nil, fmt.Errorf("%w: epoch %d precedes the oldest surviving segment (first epoch %d)", ErrEpochTruncated, from, segs[start].first)
	}
	return &TailReader{from: from, segs: segs[start:]}, nil
}

// Next returns the next record with epoch >= the open floor, io.EOF at the
// end of the tail. The returned record's Ops alias the reader's internal
// buffer only until the next call consumes a new segment; they are decoded
// fresh per record and safe to retain.
func (t *TailReader) Next() (TailRecord, error) {
	for {
		if t.data == nil {
			if t.i >= len(t.segs) {
				return TailRecord{}, io.EOF
			}
			seg := t.segs[t.i]
			t.i++
			data, err := os.ReadFile(seg.path)
			if err != nil {
				if os.IsNotExist(err) {
					// A concurrent checkpoint truncated it from under us.
					return TailRecord{}, fmt.Errorf("%w: segment %s removed mid-read", ErrEpochTruncated, seg.path)
				}
				return TailRecord{}, err
			}
			t.data, t.off, t.path = data, 0, seg.path
		}
		for t.off < len(t.data) {
			rec, next, err := decodeRecord(t.data, t.off)
			switch {
			case errors.Is(err, errTorn):
				if t.i >= len(t.segs) {
					t.torn = true
					return TailRecord{}, io.EOF // live append in progress
				}
				return TailRecord{}, fmt.Errorf("wal: %s: torn record at offset %d mid-log", t.path, t.off)
			case err != nil:
				return TailRecord{}, fmt.Errorf("wal: %s: %w", t.path, err)
			}
			size := next - t.off
			t.off = next
			if rec.epoch >= t.from {
				return TailRecord{Epoch: rec.epoch, Ops: rec.ops, Size: size}, nil
			}
		}
		t.data = nil
	}
}

// tornTail reports whether the tail that Next ended with io.EOF ended in
// a torn record, and where that record starts: the segment's path, its
// offset there, and the bytes from it to the end of the segment.
func (t *TailReader) tornTail() (path string, off, trailing int, ok bool) {
	return t.path, t.off, len(t.data) - t.off, t.torn
}

// TailFrom returns a TailReader over this durable store's log for epochs
// >= from, after syncing the log so every record committed so far is on
// disk where the reader can see it.
func (d *Durable) TailFrom(from uint64) (*TailReader, error) {
	if err := d.log.Sync(); err != nil {
		return nil, err
	}
	return OpenTail(walDir(d.dir), from)
}

// subscriber is one SubscribeCommits registration: a bounded channel plus
// the closed flag that keeps a concurrent cancel and an overflow close from
// double-closing it. All sends and closes happen under Durable.subMu.
type subscriber struct {
	ch     chan TailRecord
	closed bool
}

// SubscribeCommits registers for a notification after every committed
// publish, in epoch order: one TailRecord per op batch (and one with nil
// Ops per record-less Load epoch, which subscribers must treat as "fetch a
// fresh checkpoint" rather than something replayable). The channel holds
// buf notifications; a subscriber that falls further behind than that is
// cut off — its channel is closed with notifications lost — so a slow
// consumer degrades itself, never the write path. A closed channel means
// the subscriber must resume from the log (TailFrom) or a checkpoint.
// Closing the Durable closes every subscription. The returned cancel is
// idempotent and closes the channel.
func (d *Durable) SubscribeCommits(buf int) (<-chan TailRecord, func()) {
	if buf < 1 {
		buf = 1
	}
	s := &subscriber{ch: make(chan TailRecord, buf)}
	d.subMu.Lock()
	if d.subs == nil {
		d.subs = make(map[*subscriber]struct{})
	}
	d.subs[s] = struct{}{}
	d.subMu.Unlock()
	cancel := func() {
		d.subMu.Lock()
		defer d.subMu.Unlock()
		delete(d.subs, s)
		if !s.closed {
			s.closed = true
			close(s.ch)
		}
	}
	return s.ch, cancel
}

// notifyCommit fans one committed record out to every subscriber. Commits
// are serialised by the store's writer lock, so notifications arrive in
// epoch order. A full channel disconnects its subscriber (see
// SubscribeCommits).
func (d *Durable) notifyCommit(rec TailRecord) {
	d.subMu.Lock()
	defer d.subMu.Unlock()
	for s := range d.subs {
		select {
		case s.ch <- rec:
		default:
			delete(d.subs, s)
			s.closed = true
			close(s.ch)
		}
	}
}

// closeSubscribers ends every subscription, part of Close.
func (d *Durable) closeSubscribers() {
	d.subMu.Lock()
	defer d.subMu.Unlock()
	for s := range d.subs {
		delete(d.subs, s)
		s.closed = true
		close(s.ch)
	}
}

// CheckpointEpoch returns the epoch of the newest completed checkpoint —
// the bootstrap floor: log records above it are guaranteed replayable
// (record-less Load epochs always coincide with a checkpoint), so a
// follower at or past it can resume from the log alone.
func (d *Durable) CheckpointEpoch() uint64 { return d.ckptEpoch.Load() }

// CheckpointImage returns the newest valid checkpoint's raw bytes and the
// epoch it captures — the bootstrap payload replication ships to a follower
// that cannot resume from the log. The image is exactly the on-disk file;
// RebuildImage decodes it back into an oracle.
func (d *Durable) CheckpointImage() (uint64, []byte, error) {
	cks, err := listCheckpoints(d.dir)
	if err != nil {
		return 0, nil, err
	}
	var lastErr error
	for _, c := range cks {
		data, err := os.ReadFile(c.path)
		if err != nil {
			lastErr = err
			continue
		}
		if _, err := decodeCheckpoint(data, c.path); err != nil {
			lastErr = err
			continue
		}
		return c.first, data, nil
	}
	return 0, nil, fmt.Errorf("wal: no usable checkpoint image in %s: %w", d.dir, lastErr)
}

// RebuildImage decodes a checkpoint image (the bytes of a checkpoint file,
// as shipped by CheckpointImage) back into the oracle it captured and the
// epoch it was taken at — the follower side of a replication bootstrap.
// Where the host can, the image is spilled to an unlinked temp file and
// the labels are served out of a mapping of it, so a follower keeps one
// file-backed copy of the entries instead of a heap copy next to the
// received buffer; otherwise they are decoded onto the heap. The oracle
// answers the same either way.
func RebuildImage(data []byte) (*dynhl.Index, uint64, error) {
	return loadImage("checkpoint image",
		func() (*arena.Mapping, error) { return arena.MapBytes(data) },
		func() ([]byte, error) { return data, nil })
}
