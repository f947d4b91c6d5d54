package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	dynhl "repro"
	"repro/internal/arena"
)

// Recover rebuilds a durable Store from dir: the newest valid checkpoint is
// loaded (falling back to the previous one when the newest is damaged) and
// the log tail beyond it replayed, batch by batch, under the original
// epochs. A torn final record — the signature of a crash mid-append — is
// truncated away with a warning; an epoch published but never made durable
// cannot exist under SyncAlways, so nothing published is ever lost.
// Corruption anywhere else (checksum failures on complete records, epoch
// gaps) refuses recovery rather than serving wrong distances. ErrNoState
// when dir holds no checkpoint at all.
func Recover(dir string, opts Options) (*Durable, error) {
	opts = opts.withDefaults()
	cks, err := listCheckpoints(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoState
		}
		return nil, err
	}
	if len(cks) == 0 {
		return nil, ErrNoState
	}
	var idx *dynhl.Index
	var epoch uint64
	var ckErr error
	for _, c := range cks {
		if idx, epoch, ckErr = openCheckpoint(c.path); ckErr == nil {
			break
		}
		ckptFallbacksTotal.Add(1)
		opts.Logf("wal: skipping damaged checkpoint %s: %v", c.path, ckErr)
	}
	if idx == nil {
		return nil, fmt.Errorf("wal: no usable checkpoint in %s (newest error: %w)", dir, ckErr)
	}
	last, replayed, err := replay(idx, walDir(dir), epoch, opts.Logf)
	if err != nil {
		return nil, err
	}
	// The tail was applied to the plain index as one coalesced replay (the
	// same batching insight as the store's group commit, on the boot path):
	// wrapping it here publishes once, at the last logged epoch, instead
	// of paying one fork + publish per record.
	recoveriesTotal.Add(1)
	replayedTotal.Add(replayed)
	store := dynhl.NewStoreAt(idx, last)
	return attach(dir, store, epoch, replayed, opts)
}

// openCheckpoint loads the checkpoint file at path into the oracle it
// captured and the epoch it was taken at (see loadImage).
func openCheckpoint(path string) (*dynhl.Index, uint64, error) {
	return loadImage(path,
		func() (*arena.Mapping, error) { return arena.MapFile(path) },
		func() ([]byte, error) { return os.ReadFile(path) })
}

// loadImage turns a checkpoint image, named name in errors, into the
// oracle it captured and the epoch it was taken at. Where mapImage can map
// the image, the labels are attached straight out of the mapping: only the
// header, graph and offset pages are faulted in (the CRC skips the entry
// arenas), so boot cost stops scaling with labelling size, and the mapping
// is private, so replayed repairs never write the file. Where it cannot —
// no mmap on this platform, or a mapping that fails — readImage's bytes
// are attached from the heap instead (copyIn). A damaged image is rejected
// once, not decoded a second time.
//
// A mapping is owned by the returned index and unmapped by the garbage
// collector once no snapshot aliases it: checkpoint pruning only ever
// unlinks files, so a pruned checkpoint's pages stay valid for as long as
// anything still reads them.
func loadImage(name string, mapImage func() (*arena.Mapping, error), readImage func() ([]byte, error)) (*dynhl.Index, uint64, error) {
	m, err := mapImage()
	if err != nil {
		data, err := readImage()
		if err != nil {
			return nil, 0, err
		}
		return copyIn(data, name)
	}
	idx, epoch, err := decodeImage(m.Data(), m, name)
	if err != nil {
		m.Close()
	}
	return idx, epoch, err
}

// copyIn attaches a checkpoint image held on the heap: the labels alias a
// copy of the image's label section, so the rest of data is not kept
// alive with them, and every label's entries are checked. It is the load
// on a host without mmap, and the reference the mapped load is tested
// against.
func copyIn(data []byte, name string) (*dynhl.Index, uint64, error) {
	return decodeImage(data, nil, name)
}

// decodeImage validates a checkpoint image, decodes its graph onto the
// heap (every update mutates it; the labels are the bulk of the state) and
// attaches the labelling: in place when data lies inside the mapping m,
// and from a copy of the label section on the heap when m is nil
// (dynhl.AttachIndex).
func decodeImage(data []byte, m *arena.Mapping, name string) (*dynhl.Index, uint64, error) {
	st, err := decodeCheckpoint(data, name)
	if err != nil {
		return nil, 0, err
	}
	g, err := decodeGraphSection(st.graph, st.vertices)
	if err != nil {
		return nil, 0, err
	}
	if m == nil {
		st.labels = bytes.Clone(st.labels)
	}
	idx, err := dynhl.AttachIndex(st.labels, m, g)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: checkpoint labelling: %w", err)
	}
	return idx, st.epoch, nil
}

// replay applies the log tail beyond ckptEpoch directly to the plain
// oracle — no store wrapping yet, so the whole tail is one coalesced
// batch: no per-record fork or publish. It returns the last epoch
// applied (ckptEpoch when the log held nothing newer) and how many records
// it replayed. The epochs beyond ckptEpoch must be contiguous, and a torn
// record is truncated away only at the very end of the log.
func replay(o dynhl.Oracle, dir string, ckptEpoch uint64, logf func(string, ...any)) (uint64, uint64, error) {
	t, err := OpenTail(dir, ckptEpoch+1)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: refusing to recover: %w", err)
	}
	epoch := ckptEpoch
	var replayed uint64
	for {
		rec, err := t.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("wal: refusing to recover: %w", err)
		}
		if rec.Epoch != epoch+1 {
			return 0, 0, fmt.Errorf("wal: record for epoch %d where %d was expected (gap in the log): refusing to recover", rec.Epoch, epoch+1)
		}
		if _, err := o.Apply(rec.Ops); err != nil {
			return 0, 0, fmt.Errorf("wal: replaying epoch %d: %w", rec.Epoch, err)
		}
		epoch = rec.Epoch
		replayed++
	}
	if path, off, trailing, ok := t.tornTail(); ok {
		// A crash cut the final append short; the record's epoch was
		// never published, so dropping it loses nothing.
		tornTailsTotal.Add(1)
		logf("wal: truncating torn record at end of %s (offset %d, %d trailing bytes)", path, off, trailing)
		if err := os.Truncate(path, int64(off)); err != nil {
			return 0, 0, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	return epoch, replayed, nil
}
