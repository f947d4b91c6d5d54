package workload

import (
	"encoding/json"
	"fmt"
)

// OpKind names an update in hlserver's JSON wire format.
type OpKind string

// The two update kinds the workloads send.
const (
	InsertEdge OpKind = "insert_edge"
	DeleteEdge OpKind = "delete_edge"
)

// Op is one update, encoded exactly as POST /updates expects it.
type Op struct {
	Kind OpKind `json:"op"`
	U    uint32 `json:"u"`
	V    uint32 `json:"v"`
	W    uint32 `json:"w,omitempty"`
}

func (op Op) String() string { return fmt.Sprintf("%s(%d,%d)", op.Kind, op.U, op.V) }

// Pair is one pair of a POST /distances body.
type Pair struct {
	U uint32 `json:"u"`
	V uint32 `json:"v"`
}

// ParseDistances decodes the body of a GET /distance answer (batch false)
// or a POST /distances answer; null distances become Inf.
func ParseDistances(body []byte, batch bool) ([]uint32, error) {
	var r struct {
		Distance  *uint32   `json:"distance"`
		Distances []*uint32 `json:"distances"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if !batch {
		r.Distances = []*uint32{r.Distance}
	}
	ds := make([]uint32, len(r.Distances))
	for i, d := range r.Distances {
		ds[i] = Inf
		if d != nil {
			ds[i] = *d
		}
	}
	return ds, nil
}

// Pairs draws uniform distinct vertex pairs.
type Pairs struct {
	r *Rand
	n int
}

// NewPairs returns connection conn's pair stream over n vertices.
func NewPairs(seed int64, conn int, n int) *Pairs {
	return &Pairs{r: NewRand(seed, StreamPairs+uint64(conn)), n: n}
}

// Next returns the next pair.
func (p *Pairs) Next() (u, v uint32) {
	for {
		u, v = uint32(p.r.Intn(p.n)), uint32(p.r.Intn(p.n))
		if u != v {
			return u, v
		}
	}
}

// Updates generates a valid update stream against its own copy of the
// graph: every insert is of a pair that is not an edge at that point of
// the stream, every delete of one that is. Churn streams alternate a
// delete of a uniformly random edge with an insert, so |E| stays level.
type Updates struct {
	g     *Graph
	edges [][2]uint32 // every current edge, for uniform deletes; nil without churn
	r, rw *Rand
	maxW  int
	n     int // ops generated so far
}

// NewUpdates returns the update stream of stream id over a private copy of
// g. maxW > 0 gives inserts weights drawn from 1..maxW; churn alternates
// deletes with the inserts.
func NewUpdates(g *Graph, seed int64, stream uint64, maxW int, churn bool) *Updates {
	u := &Updates{g: g.Clone(), r: NewRand(seed, stream), rw: NewRand(seed, StreamOpW), maxW: maxW}
	if churn {
		u.edges = make([][2]uint32, 0, g.NumEdges())
		for a, l := range u.g.adj {
			for _, b := range l {
				if b > uint32(a) {
					u.edges = append(u.edges, [2]uint32{uint32(a), b})
				}
			}
		}
	}
	return u
}

// Next returns the next update and applies it to the stream's graph.
func (u *Updates) Next() Op {
	u.n++
	if u.edges != nil && u.n%2 == 1 {
		i := u.r.Intn(len(u.edges))
		e := u.edges[i]
		u.edges[i] = u.edges[len(u.edges)-1]
		u.edges = u.edges[:len(u.edges)-1]
		u.g.RemoveEdge(e[0], e[1])
		return Op{Kind: DeleteEdge, U: e[0], V: e[1]}
	}
	nv := u.g.NumVertices()
	for {
		a, b := uint32(u.r.Intn(nv)), uint32(u.r.Intn(nv))
		if a == b || u.g.HasEdge(a, b) {
			continue
		}
		op := Op{Kind: InsertEdge, U: a, V: b}
		if u.maxW > 0 {
			op.W = uint32(1 + u.rw.Intn(u.maxW))
		}
		u.g.AddEdge(a, b, op.W)
		if u.edges != nil {
			u.edges = append(u.edges, [2]uint32{a, b})
		}
		return op
	}
}

// Graph returns the stream's graph: the input graph with every op
// generated so far applied.
func (u *Updates) Graph() *Graph { return u.g }
