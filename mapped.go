package dynhl

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/arena"
	"repro/internal/dhcl"
	"repro/internal/hcl"
	"repro/internal/inchl"
	"repro/internal/whcl"
)

// Span names a byte range of a serialised labelling, absolute in the
// destination file. SaveAt reports the raw entry-arena ranges so
// checkpoint writers can exclude them from CRCs that a later mmap'd load
// must not be forced to fault in.
type Span = hcl.Span

// ErrNotMappable reports that a well-formed label stream cannot be served
// in place on this host — an unsupported host layout, a misaligned
// placement, or a platform without mmap — and the caller should fall back
// to the copy-in load. Test with errors.Is.
var ErrNotMappable = hcl.ErrNotMappable

// MmapSupported reports whether this platform can serve labellings
// straight out of mmap'd checkpoint files. When false the mapped load
// paths below return an error and callers fall back to copy-in loads.
func MmapSupported() bool { return arena.Supported() }

// SaveAt is Save for a stream landing at absolute offset base of a larger
// file, such as a checkpoint: entry arenas are page-aligned relative to
// the file, and the returned span names the entry arena within it.
func (x *Index) SaveAt(w io.Writer, base int64) (int64, []Span, error) {
	return x.idx.WriteToAt(w, base)
}

// SaveAt is Save for a stream landing at absolute offset base of its file;
// the spans name both directions' entry arenas.
func (x *DirectedIndex) SaveAt(w io.Writer, base int64) (int64, []Span, error) {
	return x.idx.WriteToAt(w, base)
}

// SaveAt is Save for a stream landing at absolute offset base of its file;
// the span names the entry arena.
func (x *WeightedIndex) SaveAt(w io.Writer, base int64) (int64, []Span, error) {
	return x.idx.WriteToAt(w, base)
}

// LoadIndexMapped attaches the labelling stored at offset off of the
// mapped region m to g, serving label entries straight out of the mapped
// bytes — the index holds the mapping alive for as long as any snapshot
// forked from it may alias the entries. Returns ErrNotMappable (test with
// errors.Is) when the stream cannot be mapped on this host; callers fall
// back to LoadIndex.
func LoadIndexMapped(m *arena.Mapping, off int64, g *Graph) (*Index, error) {
	idx, err := hcl.ReadIndexMapped(m, off, g)
	if err != nil {
		return nil, err
	}
	return &Index{idx: idx, upd: inchl.New(idx)}, nil
}

// mapFile mmaps the label file at path and attaches it with attach; the
// mapping is released again when attach fails. A platform without mmap
// reports ErrNotMappable.
func mapFile[T any](path string, attach func(*arena.Mapping) (T, error)) (T, error) {
	m, err := arena.MapFile(path)
	if err != nil {
		if errors.Is(err, arena.ErrUnsupported) {
			err = fmt.Errorf("%w: %v", ErrNotMappable, err)
		}
		var zero T
		return zero, err
	}
	x, err := attach(m)
	if err != nil {
		m.Close()
	}
	return x, err
}

// LoadMappedFile swaps in the labelling saved at path, like Load but
// serving entries straight out of an mmap of the file. The file must have
// been saved over the index's current graph. ErrNotMappable when this host
// cannot serve it in place — fall back to Load.
func (x *Index) LoadMappedFile(path string) error {
	idx, err := mapFile(path, func(m *arena.Mapping) (*hcl.Index, error) {
		return hcl.ReadIndexMapped(m, 0, x.idx.G)
	})
	if err != nil {
		return err
	}
	x.adopt(idx)
	return nil
}

// LoadMappedFile is the directed variant's mapped label-file load.
func (x *DirectedIndex) LoadMappedFile(path string) error {
	idx, err := mapFile(path, func(m *arena.Mapping) (*dhcl.Index, error) {
		return dhcl.ReadIndexMapped(m, 0, x.idx.G)
	})
	if err != nil {
		return err
	}
	x.adopt(idx)
	return nil
}

// LoadMappedFile is the weighted variant's mapped label-file load.
func (x *WeightedIndex) LoadMappedFile(path string) error {
	idx, err := mapFile(path, func(m *arena.Mapping) (*whcl.Index, error) {
		return whcl.ReadIndexMapped(m, 0, x.idx.G)
	})
	if err != nil {
		return err
	}
	x.adopt(idx)
	return nil
}

// MapIndexFile mmaps the label file at path and attaches it to g
// zero-copy. The mapping is owned by the returned index and unmapped by
// the garbage collector once no snapshot aliases it; the file may be
// unlinked while mapped.
func MapIndexFile(path string, g *Graph) (*Index, error) {
	return mapFile(path, func(m *arena.Mapping) (*Index, error) {
		return LoadIndexMapped(m, 0, g)
	})
}

// MapDirectedIndexFile is MapIndexFile for the directed variant.
func MapDirectedIndexFile(path string, g *Digraph) (*DirectedIndex, error) {
	return mapFile(path, func(m *arena.Mapping) (*DirectedIndex, error) {
		idx, err := dhcl.ReadIndexMapped(m, 0, g)
		if err != nil {
			return nil, err
		}
		return &DirectedIndex{idx: idx}, nil
	})
}

// MapWeightedIndexFile is MapIndexFile for the weighted variant.
func MapWeightedIndexFile(path string, g *WeightedGraph) (*WeightedIndex, error) {
	return mapFile(path, func(m *arena.Mapping) (*WeightedIndex, error) {
		idx, err := whcl.ReadIndexMapped(m, 0, g)
		if err != nil {
			return nil, err
		}
		return &WeightedIndex{idx: idx}, nil
	})
}
