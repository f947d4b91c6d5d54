// Package arena provides file-backed, mmap'd byte regions that the packed
// label codecs serve zero-copy: a checkpoint's entry block is mapped into
// the address space and sliced in place instead of being decoded onto the
// Go heap, so boot cost is (nearly) independent of index size and cold
// label pages are faulted from the page cache on demand.
//
// Mappings are private (copy-on-write): the kernel gives writers a private
// page on first store, so recovery replay and copy-on-write forks may
// mutate label slices that alias a mapping without ever touching the
// checkpoint file. Files are therefore opened read-only.
//
// # Lifecycle
//
// A Mapping's lifetime is its reachability. Every structure that aliases
// the mapped bytes — the packed arena chunks, the per-vertex label slices,
// the index and every fork and snapshot View descending from it — holds
// (directly or through those slices) a reference to the *Mapping, and a
// finalizer unmaps the region when the collector proves the last reference
// dropped. Checkpoint files are only ever unlinked, never truncated in
// place, so a pinned View keeps answering out of its mapping even after
// the checkpoint that backs it was pruned from disk. Close exists for
// callers (tests, short-lived tools) that can prove no aliases remain and
// want the address space back deterministically.
//
// On platforms without mmap support (see Supported) the package degrades
// to errors and callers attach the bytes from the heap instead.
package arena

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
)

// ErrUnsupported is returned by the Map functions on platforms without an
// mmap implementation; callers fall back to reading the bytes.
var ErrUnsupported = errors.New("arena: mmap not supported on this platform")

// Mapping is one mmap'd file region. The bytes are valid until the Mapping
// is garbage-collected (all aliasing structures dropped) or explicitly
// Closed. Safe for concurrent readers; writers rely on the private
// (copy-on-write) protection and must coordinate among themselves exactly
// as they would for any shared slice.
type Mapping struct {
	data   []byte
	path   string
	closed atomic.Bool
}

// Package-wide registry: total bytes and count of live mappings, surfaced
// through Stats.MappedBytes and the /healthz and /stats endpoints.
var (
	totalMapped  atomic.Int64
	liveMappings atomic.Int64
	mapsEver     atomic.Uint64
	unmapsEver   atomic.Uint64
	bytesEver    atomic.Uint64
)

// TotalMapped returns the total bytes of all live mappings in the process.
func TotalMapped() int64 { return totalMapped.Load() }

// Mappings returns the number of live mappings in the process.
func Mappings() int64 { return liveMappings.Load() }

// MapsTotal returns the cumulative number of mappings ever created —
// paired with UnmapsTotal it turns the live gauges into rates.
func MapsTotal() uint64 { return mapsEver.Load() }

// UnmapsTotal returns the cumulative number of mappings ever released
// (explicit Close or finalizer).
func UnmapsTotal() uint64 { return unmapsEver.Load() }

// MappedBytesTotal returns the cumulative bytes ever mapped.
func MappedBytesTotal() uint64 { return bytesEver.Load() }

// Supported reports whether this platform can serve mapped arenas. When
// false every Map call returns ErrUnsupported and loads read the bytes
// onto the heap.
func Supported() bool { return mmapSupported }

// PageSize returns the system page size, the alignment target for mapped
// entry blocks.
func PageSize() int { return os.Getpagesize() }

// MapFile maps the whole of the file at path, read-only on disk but
// writable in memory through private copy-on-write pages. Empty files are
// an error (mmap of length zero is invalid); callers treat it like any
// other failure to map: they read the bytes instead.
func MapFile(path string) (*Mapping, error) {
	if !mmapSupported {
		return nil, ErrUnsupported
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mapFrom(f, path)
}

// MapBytes spills data into an unlinked temporary file and maps that: the
// bytes come back as a file-backed private mapping the page cache can
// evict, which is how a follower bootstraps zero-copy from a shipped
// checkpoint image it only ever held in memory. The temporary file is
// removed immediately after mapping; the kernel keeps its pages alive
// until the mapping drops.
func MapBytes(data []byte) (*Mapping, error) {
	if !mmapSupported {
		return nil, ErrUnsupported
	}
	if len(data) == 0 {
		return nil, errors.New("arena: cannot map empty image")
	}
	f, err := os.CreateTemp("", "arena-*.img")
	if err != nil {
		return nil, err
	}
	name := f.Name()
	defer f.Close()
	defer os.Remove(name)
	if _, err := f.Write(data); err != nil {
		return nil, fmt.Errorf("arena: spilling image: %w", err)
	}
	return mapFrom(f, name)
}

// mapFrom maps the whole of the open file f.
func mapFrom(f *os.File, path string) (*Mapping, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, fmt.Errorf("arena: %s is empty", path)
	}
	const maxInt = int64(^uint(0) >> 1)
	if size > maxInt {
		return nil, fmt.Errorf("arena: %s is too large to map (%d bytes)", path, size)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("arena: mapping %s: %w", path, err)
	}
	m := &Mapping{data: data, path: path}
	totalMapped.Add(int64(len(data)))
	liveMappings.Add(1)
	mapsEver.Add(1)
	bytesEver.Add(uint64(len(data)))
	// Reachability is the refcount: when the last label slice, packed chunk,
	// fork or View aliasing the mapping is collected, so is m, and the
	// finalizer gives the address space back.
	runtime.SetFinalizer(m, (*Mapping).finalize)
	return m, nil
}

// Data returns the mapped bytes. The slice aliases the mapping directly;
// it must not be used after Close.
func (m *Mapping) Data() []byte { return m.data }

// Len returns the mapped length in bytes.
func (m *Mapping) Len() int64 { return int64(len(m.data)) }

// Path returns the file the mapping was created from (possibly since
// unlinked).
func (m *Mapping) Path() string { return m.path }

// Close unmaps the region now instead of waiting for the collector. The
// caller asserts no live structure aliases the mapped bytes any more —
// after Close every such slice is poison. Idempotent.
func (m *Mapping) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	totalMapped.Add(-int64(len(m.data)))
	liveMappings.Add(-1)
	unmapsEver.Add(1)
	err := munmap(m.data)
	m.data = nil
	return err
}

func (m *Mapping) finalize() { _ = m.Close() }
