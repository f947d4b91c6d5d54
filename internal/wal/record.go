// Package wal is the durability subsystem that makes a dynhl.Store
// crash-recoverable: a write-ahead log of applied op batches keyed by the
// epoch each one published, periodic checkpoints of the full labelling, and
// a recovery path that rebuilds the store from the newest checkpoint plus
// the log tail — restart cost proportional to the churn since the last
// checkpoint, not to a full index rebuild.
//
// On-disk layout under the data directory:
//
//	checkpoint-<epoch>.ckpt   graph + labelling at one epoch (newest two kept)
//	wal/<firstEpoch>.wal      log segments, named by the first epoch appended
//
// Every publish appends one length-prefixed, CRC32-checksummed binary
// record to the active segment before the epoch becomes visible to readers
// (see dynhl.Durability); with the fsync policy SyncAlways the record is
// durable first, so a kill -9 at any point never loses a published epoch.
// A checkpoint writes the current snapshot's graph and labelling to a
// sidecar file, rotates the log, and deletes segments wholly covered by a
// retained checkpoint. Recover loads the newest valid checkpoint (falling
// back to the previous one if the newest is damaged) and replays the log
// tail, tolerating a torn final record — truncate, warn, continue — and
// refusing on mid-log corruption. One caveat: an epoch published by
// Store.Load carries no op record (its state exists only as the checkpoint
// that captured it), so the fallback checkpoint cannot recover across it —
// damage to a Load checkpoint refuses recovery instead of serving a state
// with the Load silently missing.
//
// Only oracles that can serialise both their labelling (into a checkpoint
// file) and their graph — currently the undirected *dynhl.Index — can be
// made durable; Create reports errors.ErrUnsupported for the rest.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	dynhl "repro"
)

// Record frame: u32 payload length | u32 CRC32 (IEEE) of payload | payload.
// Payload: u64 epoch | op batch (dynhl.AppendOps). All little-endian.
const (
	frameHeader = 8
	// minPayload is the smallest legal payload: the epoch plus a varint op
	// count. Complete frames announcing less are corrupt, not torn.
	minPayload = 9
	// maxRecordBytes bounds a single record; a length beyond it is treated
	// as corruption rather than an allocation request.
	maxRecordBytes = 1 << 28
)

// errTorn marks an incomplete frame at the end of a scan — the signature of
// a write cut short by a crash. Recovery truncates it away; anywhere else in
// the log it means a gap and recovery refuses.
var errTorn = errors.New("wal: torn record")

// errCorrupt marks a complete frame whose checksum or contents are wrong —
// not a torn write but damaged data, which recovery never skips over.
var errCorrupt = errors.New("wal: corrupt record")

// appendRecord appends the framed encoding of one (epoch, ops) record.
func appendRecord(buf []byte, epoch uint64, ops []dynhl.Op) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf, err := dynhl.AppendOps(buf, ops)
	if err != nil {
		return nil, err
	}
	payload := buf[start+frameHeader:]
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// record is one decoded WAL entry: the op batch that published epoch.
type record struct {
	epoch uint64
	ops   []dynhl.Op
}

// decodeRecord parses the frame at buf[off:], returning the record and the
// offset of the next frame. An incomplete frame is errTorn; a complete
// frame that fails validation wraps errCorrupt.
func decodeRecord(buf []byte, off int) (record, int, error) {
	rest := buf[off:]
	if len(rest) < frameHeader {
		return record{}, 0, errTorn
	}
	n := binary.LittleEndian.Uint32(rest)
	if n < minPayload || n > maxRecordBytes {
		return record{}, 0, fmt.Errorf("%w: implausible length %d at offset %d", errCorrupt, n, off)
	}
	if len(rest) < frameHeader+int(n) {
		return record{}, 0, errTorn
	}
	payload := rest[frameHeader : frameHeader+int(n)]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(rest[4:]); got != want {
		return record{}, 0, fmt.Errorf("%w: checksum mismatch at offset %d", errCorrupt, off)
	}
	epoch := binary.LittleEndian.Uint64(payload)
	ops, used, err := dynhl.DecodeOps(payload[8:])
	if err != nil || used != len(payload)-8 {
		return record{}, 0, fmt.Errorf("%w: bad op batch at offset %d: %v", errCorrupt, off, err)
	}
	return record{epoch: epoch, ops: ops}, off + frameHeader + int(n), nil
}
