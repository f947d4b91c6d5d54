// Package queue provides the queues of the searches in this repository:
// one ring-buffer FIFO for the breadth-first searches, which avoids the
// per-element allocation of container/list and the head-slice churn of
// append/shift slices, and the monotone radix heap (PQ) of every Dijkstra.
package queue

// FIFO is a first-in first-out queue backed by a growable ring buffer.
// The zero value is ready to use.
type FIFO[T any] struct {
	buf  []T
	head int
	tail int
	n    int
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Empty reports whether the queue holds no elements.
func (q *FIFO[T]) Empty() bool { return q.n == 0 }

// Push appends x to the tail of the queue.
func (q *FIFO[T]) Push(x T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = x
	q.tail++
	if q.tail == len(q.buf) {
		q.tail = 0
	}
	q.n++
}

// Pop removes and returns the head of the queue.
// It panics if the queue is empty.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("queue: Pop on empty FIFO")
	}
	x := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return x
}

// Reset discards all elements but keeps the backing buffer.
func (q *FIFO[T]) Reset() {
	q.head, q.tail, q.n = 0, 0, 0
}

func (q *FIFO[T]) grow() {
	next := make([]T, max(4, 2*len(q.buf)))
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
