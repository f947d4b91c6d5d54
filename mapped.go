package dynhl

import (
	"repro/internal/arena"
	"repro/internal/hcl"
)

// Span names a byte range of a serialised labelling, absolute in the
// destination file. SaveAt reports the raw entry-arena ranges so
// checkpoint writers can exclude them from CRCs that a later mmap'd load
// must not be forced to fault in.
type Span = hcl.Span

// ErrNotMappable reports that a well-formed label stream cannot be served
// in place on this host — an unsupported host layout or a misaligned
// placement — and the caller should fall back to the copy-in load. Test
// with errors.Is.
var ErrNotMappable = hcl.ErrNotMappable

// LoadIndexMapped attaches the labelling stored at offset off of the
// mapped region m to g, serving label entries straight out of the mapped
// bytes — the index holds the mapping alive for as long as any snapshot
// forked from it may alias the entries. Returns ErrNotMappable (test with
// errors.Is) when the stream cannot be mapped on this host; the caller
// then decodes it with LoadIndex.
func LoadIndexMapped(m *arena.Mapping, off int64, g *Graph) (*Index, error) {
	idx, err := hcl.ReadIndexMapped(m, off, g)
	if err != nil {
		return nil, err
	}
	return &Index{newIndex(idx)}, nil
}
