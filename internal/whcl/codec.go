package whcl

import (
	"fmt"
	"io"

	"repro/internal/arena"
	"repro/internal/hcl"
	"repro/internal/wgraph"
)

// codecMagic names the weighted label stream: the shared hcl stream layout
// with the symmetric weighted highway and one label block.
const codecMagic = "WHL2"

// WriteTo serialises the weighted labelling (landmarks, highway, labels)
// to w as a file of its own. The graph is serialised separately.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	n, _, err := idx.WriteToAt(w, 0)
	return n, err
}

// WriteToAt serialises the weighted labelling for a stream starting at
// absolute offset base of the destination file. The returned span names
// the raw entry area.
func (idx *Index) WriteToAt(w io.Writer, base int64) (int64, []hcl.Span, error) {
	return hcl.WriteStream(w, codecMagic, idx.Landmarks, idx.hw, base, idx.L)
}

// ReadIndex deserialises a labelling written by WriteTo and attaches it to
// g, which must be the graph the index was built over (vertex count is
// checked; callers needing a stronger guarantee can run VerifyCover). The
// loaded index is already packed: the label block is the arena.
func ReadIndex(r io.Reader, g *wgraph.Graph) (*Index, error) {
	s, err := hcl.ReadStream(r, codecMagic, g.NumVertices(), 1)
	return fromStream(g, s, nil, err)
}

// ReadIndexMapped attaches the index stream at offset streamOff of the
// mapping m to g, serving the entry arena straight out of the mapped
// bytes. Returns hcl.ErrNotMappable when this host cannot serve the stream
// in place — callers fall back to ReadIndex.
func ReadIndexMapped(m *arena.Mapping, streamOff int64, g *wgraph.Graph) (*Index, error) {
	s, err := hcl.MapStream(m, streamOff, codecMagic, g.NumVertices(), 1)
	return fromStream(g, s, m, err)
}

// fromStream builds the index a decoded or mapped stream describes; m is
// the mapping its arena aliases, if any.
func fromStream(g *wgraph.Graph, s *hcl.Stream, m *arena.Mapping, err error) (*Index, error) {
	if err != nil {
		return nil, fmt.Errorf("whcl: %w", err)
	}
	idx := newIndex(g, s.Landmarks, s.Highway)
	idx.L, idx.packed, idx.mapRef = s.Labels[0], s.Packed[0], m
	return idx, nil
}
