package dynhl

import (
	"errors"
	"fmt"

	"repro/internal/arena"
	"repro/internal/dhcl"
	"repro/internal/hcl"
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
	return &Index{newIndex(idx)}, nil
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
		return &DirectedIndex{newDirected(idx)}, nil
	})
}

// MapWeightedIndexFile is MapIndexFile for the weighted variant.
func MapWeightedIndexFile(path string, g *WeightedGraph) (*WeightedIndex, error) {
	return mapFile(path, func(m *arena.Mapping) (*WeightedIndex, error) {
		idx, err := whcl.ReadIndexMapped(m, 0, g)
		if err != nil {
			return nil, err
		}
		return &WeightedIndex{newWeighted(idx)}, nil
	})
}
