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

// AttachIndex attaches the labelling stream at the start of data to g.
// When m is non-nil, data lies inside m's mapped bytes: label entries are
// served straight out of the mapping, and the index holds it alive for as
// long as any snapshot forked from it may alias the entries. When m is
// nil, data is heap bytes, which the index aliases but never writes, and
// every label is checked as LoadIndex checks it.
func AttachIndex(data []byte, m *arena.Mapping, g *Graph) (*Index, error) {
	idx, err := hcl.AttachIndex(data, m, g)
	if err != nil {
		return nil, err
	}
	return &Index{newIndex(idx)}, nil
}
