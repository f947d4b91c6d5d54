// Package queue provides the queues of the searches in this repository:
// ring-buffer FIFOs for the breadth-first searches, which avoid the
// per-element allocation of container/list and the head-slice churn of
// append/shift slices, and the monotone radix heap (PQ) of every Dijkstra.
package queue

// Uint32 is a FIFO queue of uint32 values backed by a growable ring buffer.
// The zero value is ready to use.
type Uint32 struct {
	buf  []uint32
	head int
	tail int
	n    int
}

// NewUint32 returns a queue with capacity for at least n elements.
func NewUint32(n int) *Uint32 {
	if n < 4 {
		n = 4
	}
	return &Uint32{buf: make([]uint32, n)}
}

// Len reports the number of queued elements.
func (q *Uint32) Len() int { return q.n }

// Empty reports whether the queue holds no elements.
func (q *Uint32) Empty() bool { return q.n == 0 }

// Push appends v to the tail of the queue.
func (q *Uint32) Push(v uint32) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = v
	q.tail++
	if q.tail == len(q.buf) {
		q.tail = 0
	}
	q.n++
}

// Pop removes and returns the head of the queue.
// It panics if the queue is empty.
func (q *Uint32) Pop() uint32 {
	if q.n == 0 {
		panic("queue: Pop on empty Uint32 queue")
	}
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// Peek returns the head of the queue without removing it.
// It panics if the queue is empty.
func (q *Uint32) Peek() uint32 {
	if q.n == 0 {
		panic("queue: Peek on empty Uint32 queue")
	}
	return q.buf[q.head]
}

// Reset discards all elements but keeps the backing buffer.
func (q *Uint32) Reset() {
	q.head, q.tail, q.n = 0, 0, 0
}

func (q *Uint32) grow() {
	next := make([]uint32, max(4, 2*len(q.buf)))
	if q.n > 0 {
		if q.head < q.tail {
			copy(next, q.buf[q.head:q.tail])
		} else {
			k := copy(next, q.buf[q.head:])
			copy(next[k:], q.buf[:q.tail])
		}
	}
	q.buf = next
	q.head = 0
	q.tail = q.n
}

// Pair is a (vertex, depth) element for BFS frontiers that must carry an
// explicit depth, such as the jumped searches of IncHL+.
type Pair struct {
	V uint32
	D uint32
}

// PairQueue is a FIFO queue of Pair values backed by a growable ring buffer.
// The zero value is ready to use.
type PairQueue struct {
	buf  []Pair
	head int
	tail int
	n    int
}

// NewPairQueue returns a queue with capacity for at least n elements.
func NewPairQueue(n int) *PairQueue {
	if n < 4 {
		n = 4
	}
	return &PairQueue{buf: make([]Pair, n)}
}

// Len reports the number of queued elements.
func (q *PairQueue) Len() int { return q.n }

// Empty reports whether the queue holds no elements.
func (q *PairQueue) Empty() bool { return q.n == 0 }

// Push appends p to the tail of the queue.
func (q *PairQueue) Push(p Pair) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = p
	q.tail++
	if q.tail == len(q.buf) {
		q.tail = 0
	}
	q.n++
}

// Pop removes and returns the head of the queue.
// It panics if the queue is empty.
func (q *PairQueue) Pop() Pair {
	if q.n == 0 {
		panic("queue: Pop on empty PairQueue")
	}
	p := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return p
}

// Peek returns the head of the queue without removing it.
// It panics if the queue is empty.
func (q *PairQueue) Peek() Pair {
	if q.n == 0 {
		panic("queue: Peek on empty PairQueue")
	}
	return q.buf[q.head]
}

// Reset discards all elements but keeps the backing buffer.
func (q *PairQueue) Reset() {
	q.head, q.tail, q.n = 0, 0, 0
}

func (q *PairQueue) grow() {
	next := make([]Pair, max(4, 2*len(q.buf)))
	if q.n > 0 {
		if q.head < q.tail {
			copy(next, q.buf[q.head:q.tail])
		} else {
			k := copy(next, q.buf[q.head:])
			copy(next[k:], q.buf[:q.tail])
		}
	}
	q.buf = next
	q.head = 0
	q.tail = q.n
}
