package dynhl

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// OpKind identifies one kind of graph mutation in an Op. The JSON encoding
// is the snake_case name ("insert_edge", …), so op batches round-trip
// through the HTTP API without a translation layer.
type OpKind uint8

const (
	// OpInsertEdge inserts edge (U,V) with weight W (0 means 1).
	OpInsertEdge OpKind = iota + 1
	// OpDeleteEdge deletes edge (U,V).
	OpDeleteEdge
	// OpInsertVertex adds a new vertex with the initial Arcs.
	OpInsertVertex
	// OpDeleteVertex disconnects vertex V (all incident edges).
	OpDeleteVertex
)

var opKindNames = map[OpKind]string{
	OpInsertEdge:   "insert_edge",
	OpDeleteEdge:   "delete_edge",
	OpInsertVertex: "insert_vertex",
	OpDeleteVertex: "delete_vertex",
}

// String returns the snake_case operation name.
func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its snake_case name.
func (k OpKind) MarshalJSON() ([]byte, error) {
	s, ok := opKindNames[k]
	if !ok {
		return nil, fmt.Errorf("dynhl: cannot encode unknown op kind %d", uint8(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a snake_case operation name.
func (k *OpKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, name := range opKindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("dynhl: unknown op kind %q", s)
}

// Op is one graph mutation of a batched update. A batch of ops is applied
// by Oracle.Apply; through a Store the whole batch becomes visible to
// readers atomically, as a single new epoch. Construct ops with the
// InsertEdgeOp/DeleteEdgeOp/InsertVertexOp/DeleteVertexOp helpers.
type Op struct {
	Kind OpKind `json:"op"`
	// U, V are the edge endpoints (Kind Insert/DeleteEdge) or V the vertex
	// (Kind DeleteVertex).
	U uint32 `json:"u,omitempty"`
	V uint32 `json:"v,omitempty"`
	// W is the edge weight for OpInsertEdge; 0 means 1.
	W Dist `json:"w,omitempty"`
	// Arcs are the initial connections for OpInsertVertex.
	Arcs []Arc `json:"arcs,omitempty"`
}

// InsertEdgeOp returns the op inserting edge (u,v) with weight w (0 = 1).
func InsertEdgeOp(u, v uint32, w Dist) Op { return Op{Kind: OpInsertEdge, U: u, V: v, W: w} }

// DeleteEdgeOp returns the op deleting edge (u,v).
func DeleteEdgeOp(u, v uint32) Op { return Op{Kind: OpDeleteEdge, U: u, V: v} }

// InsertVertexOp returns the op adding a new vertex with the given arcs.
func InsertVertexOp(arcs ...Arc) Op { return Op{Kind: OpInsertVertex, Arcs: arcs} }

// DeleteVertexOp returns the op disconnecting vertex v.
func DeleteVertexOp(v uint32) Op { return Op{Kind: OpDeleteVertex, V: v} }

// Binary op codec
//
// The write-ahead log (internal/wal) persists every applied batch, so ops
// need an encoding that is compact and fast to decode on recovery; the JSON
// kinds above stay the HTTP wire format. The binary form is one kind byte
// followed by the kind's fields as unsigned varints (insert_vertex arcs are
// a count, then per arc: to, w, and an in flag byte). A batch is a varint
// op count followed by the ops.

// AppendBinary appends op's binary encoding to buf and returns the extended
// slice. Unknown kinds are an error.
func (op Op) AppendBinary(buf []byte) ([]byte, error) {
	switch op.Kind {
	case OpInsertEdge:
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(op.U))
		buf = binary.AppendUvarint(buf, uint64(op.V))
		buf = binary.AppendUvarint(buf, uint64(op.W))
	case OpDeleteEdge:
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(op.U))
		buf = binary.AppendUvarint(buf, uint64(op.V))
	case OpInsertVertex:
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(op.Arcs)))
		for _, a := range op.Arcs {
			buf = binary.AppendUvarint(buf, uint64(a.To))
			buf = binary.AppendUvarint(buf, uint64(a.W))
			in := byte(0)
			if a.In {
				in = 1
			}
			buf = append(buf, in)
		}
	case OpDeleteVertex:
		buf = append(buf, byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(op.V))
	default:
		return nil, fmt.Errorf("dynhl: cannot encode unknown op kind %d", uint8(op.Kind))
	}
	return buf, nil
}

// AppendOps appends the binary encoding of a whole batch (varint count,
// then each op) to buf, the inverse of DecodeOps.
func AppendOps(buf []byte, ops []Op) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	var err error
	for _, op := range ops {
		if buf, err = op.AppendBinary(buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeOp decodes one op from the front of buf, returning the number of
// bytes consumed. It never panics on malformed input and bounds every
// allocation by the input size, so it is safe on untrusted bytes.
func DecodeOp(buf []byte) (Op, int, error) {
	if len(buf) == 0 {
		return Op{}, 0, fmt.Errorf("dynhl: decoding op: %w", io.ErrUnexpectedEOF)
	}
	op := Op{Kind: OpKind(buf[0])}
	n := 1
	field := func(name string) (uint32, error) {
		v, w := binary.Uvarint(buf[n:])
		if w <= 0 || v > uint64(^uint32(0)) {
			return 0, fmt.Errorf("dynhl: decoding op %s: bad varint", name)
		}
		n += w
		return uint32(v), nil
	}
	var err error
	switch op.Kind {
	case OpInsertEdge:
		if op.U, err = field("u"); err != nil {
			return Op{}, 0, err
		}
		if op.V, err = field("v"); err != nil {
			return Op{}, 0, err
		}
		var w uint32
		if w, err = field("w"); err != nil {
			return Op{}, 0, err
		}
		op.W = Dist(w)
	case OpDeleteEdge:
		if op.U, err = field("u"); err != nil {
			return Op{}, 0, err
		}
		if op.V, err = field("v"); err != nil {
			return Op{}, 0, err
		}
	case OpInsertVertex:
		cnt, w := binary.Uvarint(buf[n:])
		if w <= 0 {
			return Op{}, 0, fmt.Errorf("dynhl: decoding op arcs: bad varint")
		}
		n += w
		// Every arc costs at least three bytes (two varints and a flag), so
		// an arc count beyond that is malformed — reject before allocating.
		if cnt > uint64(len(buf)-n)/3 {
			return Op{}, 0, fmt.Errorf("dynhl: decoding op: arc count %d exceeds input", cnt)
		}
		if cnt > 0 {
			op.Arcs = make([]Arc, cnt)
		}
		for i := range op.Arcs {
			if op.Arcs[i].To, err = field("arc to"); err != nil {
				return Op{}, 0, err
			}
			var aw uint32
			if aw, err = field("arc w"); err != nil {
				return Op{}, 0, err
			}
			op.Arcs[i].W = Dist(aw)
			if n >= len(buf) || buf[n] > 1 {
				return Op{}, 0, fmt.Errorf("dynhl: decoding op: bad arc flag")
			}
			op.Arcs[i].In = buf[n] == 1
			n++
		}
	case OpDeleteVertex:
		if op.V, err = field("v"); err != nil {
			return Op{}, 0, err
		}
	default:
		return Op{}, 0, fmt.Errorf("dynhl: decoding op: unknown kind %d", buf[0])
	}
	return op, n, nil
}

// DecodeOps decodes a batch written by AppendOps from the front of buf,
// returning the ops and the number of bytes consumed. Like DecodeOp it is
// safe on untrusted bytes.
func DecodeOps(buf []byte) ([]Op, int, error) {
	cnt, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("dynhl: decoding op batch: bad count varint")
	}
	// Every op costs at least two bytes (kind plus one varint), so a count
	// beyond that is malformed — reject before allocating.
	if cnt > uint64(len(buf)-n)/2 {
		return nil, 0, fmt.Errorf("dynhl: decoding op batch: op count %d exceeds input", cnt)
	}
	ops := make([]Op, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		op, w, err := DecodeOp(buf[n:])
		if err != nil {
			return nil, 0, fmt.Errorf("dynhl: decoding op %d of %d: %w", i, cnt, err)
		}
		n += w
		ops = append(ops, op)
	}
	return ops, n, nil
}

// OpError reports which op of a batch failed and why: Index is the op's
// position within the caller's own batch (coalescing with other writers
// never shifts it) and Err is the underlying failure, typically one of the
// sentinel errors, reachable through errors.Is/errors.As.
type OpError struct {
	Index int
	Kind  OpKind
	Err   error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("dynhl: op %d (%s): %v", e.Index, e.Kind, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// mutator is the write half of an Oracle: what applyOps drives.
type mutator interface {
	InsertEdge(u, v uint32, w Dist) (UpdateSummary, error)
	InsertVertex(arcs []Arc) (uint32, UpdateSummary, error)
	DeleteEdge(u, v uint32) (UpdateSummary, error)
	DeleteVertex(v uint32) (UpdateSummary, error)
}

// applyOps applies ops to o in order, stopping at the first failure. The
// returned summaries cover the ops that succeeded; the error is an *OpError
// wrapping the op index and kind around the oracle's sentinel. Plain
// variants expose this directly (a mid-batch failure leaves the earlier ops
// applied); the Store turns it into an all-or-nothing publish by applying
// to a discardable fork.
func applyOps(o mutator, ops []Op) ([]UpdateSummary, error) {
	out := make([]UpdateSummary, 0, len(ops))
	for i, op := range ops {
		var s UpdateSummary
		var err error
		switch op.Kind {
		case OpInsertEdge:
			s, err = o.InsertEdge(op.U, op.V, op.W)
		case OpDeleteEdge:
			s, err = o.DeleteEdge(op.U, op.V)
		case OpInsertVertex:
			var id uint32
			id, s, err = o.InsertVertex(op.Arcs)
			if err == nil {
				v := id
				s.NewVertex = &v
			}
		case OpDeleteVertex:
			s, err = o.DeleteVertex(op.V)
		default:
			err = fmt.Errorf("dynhl: unknown op kind %d", uint8(op.Kind))
		}
		if err != nil {
			return out, &OpError{Index: i, Kind: op.Kind, Err: err}
		}
		out = append(out, s)
	}
	return out, nil
}
