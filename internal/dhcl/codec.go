package dhcl

import (
	"fmt"
	"io"

	"repro/internal/arena"
	"repro/internal/digraph"
	"repro/internal/hcl"
)

// codecMagic names the directed label stream: the shared hcl stream
// layout with the directed highway (hf[i*k+j] = d(ri→rj)) and two label
// blocks, forward then backward.
const codecMagic = "DHL2"

// WriteTo serialises the directed labelling (landmarks, highway, both label
// sets) to w as a file of its own. The graph is serialised separately.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	n, _, err := idx.WriteToAt(w, 0)
	return n, err
}

// WriteToAt serialises the directed labelling for a stream starting at
// absolute offset base of the destination file. The returned spans name
// the two raw entry areas (forward, backward).
func (idx *Index) WriteToAt(w io.Writer, base int64) (int64, []hcl.Span, error) {
	return hcl.WriteStream(w, codecMagic, idx.Landmarks, idx.hf, base, idx.Lf, idx.Lb)
}

// ReadIndex deserialises a labelling written by WriteTo and attaches it to
// g, which must be the graph the index was built over (vertex count is
// checked; callers needing a stronger guarantee can run VerifyCover). The
// loaded index is already packed in both directions: the label blocks are
// the arenas.
func ReadIndex(r io.Reader, g *digraph.Digraph) (*Index, error) {
	s, err := hcl.ReadStream(r, codecMagic, g.NumVertices(), 2)
	return fromStream(g, s, nil, err)
}

// ReadIndexMapped attaches the index stream at offset streamOff of the
// mapping m to g, serving both entry arenas straight out of the mapped
// bytes. Returns hcl.ErrNotMappable when this host cannot serve the stream
// in place — callers fall back to ReadIndex.
func ReadIndexMapped(m *arena.Mapping, streamOff int64, g *digraph.Digraph) (*Index, error) {
	s, err := hcl.MapStream(m, streamOff, codecMagic, g.NumVertices(), 2)
	return fromStream(g, s, m, err)
}

// fromStream builds the index a decoded or mapped stream describes; m is
// the mapping its arenas alias, if any.
func fromStream(g *digraph.Digraph, s *hcl.Stream, m *arena.Mapping, err error) (*Index, error) {
	if err != nil {
		return nil, fmt.Errorf("dhcl: %w", err)
	}
	idx := newIndex(g, s.Landmarks, s.Highway)
	idx.Lf, idx.Lb = s.Labels[0], s.Labels[1]
	idx.packedF, idx.packedB = s.Packed[0], s.Packed[1]
	idx.mapRef = m
	return idx, nil
}
