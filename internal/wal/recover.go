package wal

import (
	"bytes"
	"errors"
	"fmt"
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
	var st ckptState
	var idx *dynhl.Index
	var ckErr error
	for _, c := range cks {
		if opts.Mmap.Enabled() {
			// The mapped boot serves the checkpoint's label entries
			// straight out of the page cache — it faults in only the
			// header, graph and offset pages (the CRC skips the entry
			// arenas), so boot cost stops scaling with labelling size.
			// Replay still works: the mapping is private, so in-place
			// label repairs dirty anonymous copies, never the file.
			mapped, epoch, err := mapCheckpoint(c.path)
			switch {
			case err == nil:
				idx, st.epoch = mapped, epoch
			case errors.Is(err, dynhl.ErrNotMappable):
				// No mmap here, or a layout this host cannot map: quiet
				// copy-in.
			default:
				opts.Logf("wal: mapped boot of %s failed (%v); falling back to copy-in", c.path, err)
			}
		}
		if idx == nil {
			if st, ckErr = readCheckpoint(c.path); ckErr != nil {
				ckptFallbacksTotal.Add(1)
				opts.Logf("wal: skipping damaged checkpoint %s: %v", c.path, ckErr)
				continue
			}
		}
		break
	}
	if idx == nil && st.graph == nil {
		return nil, fmt.Errorf("wal: no usable checkpoint in %s (newest error: %w)", dir, ckErr)
	}

	if idx == nil {
		if idx, err = rebuildIndex(st); err != nil {
			return nil, err
		}
	}
	last, replayed, err := replay(idx, walDir(dir), st.epoch, opts.Logf)
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
	return attach(dir, store, st.epoch, replayed, opts)
}

// rebuildIndex reconstructs the oracle a checkpoint captured: the graph
// from its binary edge array, then the labelling attached to it — no
// landmark searches, no label construction.
func rebuildIndex(st ckptState) (*dynhl.Index, error) {
	g, err := decodeGraphSection(st.graph, st.vertices)
	if err != nil {
		return nil, err
	}
	idx, err := dynhl.LoadIndex(bytes.NewReader(st.labels), g)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint labelling: %w", err)
	}
	return idx, nil
}

// mapCheckpoint is the zero-copy variant of readCheckpoint+rebuildIndex:
// it mmaps the checkpoint file and attaches the labelling in place. The
// graph is still decoded to the heap (it is mutated by every update; the
// labels are the bulk of the state). Returns dynhl.ErrNotMappable when
// this host cannot map the checkpoint; the mapping is owned by the
// returned index and unmapped by the garbage collector once no snapshot
// aliases it — checkpoint pruning only ever unlinks files, so a pruned
// checkpoint's pages stay valid for as long as anything still reads them.
func mapCheckpoint(path string) (*dynhl.Index, uint64, error) {
	m, err := arena.MapFile(path)
	if err != nil {
		if errors.Is(err, arena.ErrUnsupported) {
			err = fmt.Errorf("%w: %s", dynhl.ErrNotMappable, err)
		}
		return nil, 0, err
	}
	st, err := decodeCheckpoint(m.Data(), path)
	if err != nil {
		m.Close()
		return nil, 0, err
	}
	g, err := decodeGraphSection(st.graph, st.vertices)
	if err != nil {
		m.Close()
		return nil, 0, err
	}
	idx, err := dynhl.LoadIndexMapped(m, st.labelsOff, g)
	if err != nil {
		m.Close()
		return nil, 0, fmt.Errorf("wal: checkpoint labelling: %w", err)
	}
	return idx, st.epoch, nil
}

// replay applies the log tail beyond ckptEpoch directly to the plain
// oracle — no store wrapping yet, so the whole tail is one coalesced
// batch: no per-record fork or publish. It returns the last epoch
// applied (ckptEpoch when the log held nothing newer) and how many records
// it replayed. Records at or below ckptEpoch (kept for an older
// checkpoint) are skipped; beyond it epochs must be contiguous.
func replay(o dynhl.Oracle, dir string, ckptEpoch uint64, logf func(string, ...any)) (uint64, uint64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return ckptEpoch, 0, nil // no log yet: the checkpoint is the whole state
		}
		return 0, 0, err
	}
	epoch := ckptEpoch
	var replayed uint64
	for i, seg := range segs {
		last := i == len(segs)-1
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return 0, 0, err
		}
		off := 0
		for off < len(data) {
			rec, next, err := decodeRecord(data, off)
			switch {
			case errors.Is(err, errTorn):
				if !last {
					return 0, 0, fmt.Errorf("wal: %s: torn record at offset %d mid-log (later segments exist): refusing to recover", seg.path, off)
				}
				// A crash cut the final append short; the record's epoch
				// was never published, so dropping it loses nothing.
				tornTailsTotal.Add(1)
				logf("wal: truncating torn record at end of %s (offset %d, %d trailing bytes)", seg.path, off, len(data)-off)
				if err := os.Truncate(seg.path, int64(off)); err != nil {
					return 0, 0, fmt.Errorf("wal: truncating torn tail: %w", err)
				}
				return epoch, replayed, nil
			case err != nil:
				return 0, 0, fmt.Errorf("wal: %s: refusing to recover past damaged log: %w", seg.path, err)
			}
			if rec.epoch > ckptEpoch {
				if rec.epoch != epoch+1 {
					return 0, 0, fmt.Errorf("wal: %s: record for epoch %d where %d was expected (gap in the log): refusing to recover", seg.path, rec.epoch, epoch+1)
				}
				if _, err := o.Apply(rec.ops); err != nil {
					return 0, 0, fmt.Errorf("wal: replaying epoch %d: %w", rec.epoch, err)
				}
				epoch = rec.epoch
				replayed++
			}
			off = next
		}
	}
	return epoch, replayed, nil
}
