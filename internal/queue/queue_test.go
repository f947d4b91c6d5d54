package queue

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUint32FIFO(t *testing.T) {
	var q FIFO[uint32]
	for i := uint32(0); i < 10; i++ {
		q.Push(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len: got %d, want 10", q.Len())
	}
	for i := uint32(0); i < 10; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop %d: got %d", i, got)
		}
	}
	if !q.Empty() {
		t.Error("queue should be empty")
	}
}

func TestUint32WrapAround(t *testing.T) {
	var q FIFO[uint32] // zero value usable
	for round := 0; round < 5; round++ {
		for i := uint32(0); i < 7; i++ {
			q.Push(i)
		}
		for i := uint32(0); i < 7; i++ {
			if got := q.Pop(); got != i {
				t.Fatalf("round %d pop: got %d, want %d", round, got, i)
			}
		}
	}
}

func TestUint32PopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty queue must panic")
		}
	}()
	var q FIFO[uint32]
	q.Pop()
}

func TestUint32Reset(t *testing.T) {
	var q FIFO[uint32]
	q.Push(1)
	q.Push(2)
	q.Reset()
	if !q.Empty() {
		t.Error("Reset must empty the queue")
	}
	q.Push(9)
	if q.Pop() != 9 {
		t.Error("queue unusable after Reset")
	}
}

func TestPairQueueFIFO(t *testing.T) {
	var q FIFO[Pair]
	for i := uint32(0); i < 20; i++ {
		q.Push(Pair{V: i, D: i * 2})
	}
	for i := uint32(0); i < 20; i++ {
		p := q.Pop()
		if p.V != i || p.D != i*2 {
			t.Fatalf("Pop: got %v", p)
		}
	}
}

func TestPairQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty queue must panic")
		}
	}()
	var q FIFO[Pair]
	q.Pop()
}

func TestQueueQuickMirrorsSlice(t *testing.T) {
	// Property: interleaved pushes and pops behave like a slice-backed FIFO.
	f := func(ops []uint16) bool {
		var q FIFO[uint32]
		var ref []uint32
		for _, op := range ops {
			if op%3 == 0 && len(ref) > 0 {
				want := ref[0]
				ref = ref[1:]
				if q.Pop() != want {
					return false
				}
			} else {
				q.Push(uint32(op))
				ref = append(ref, uint32(op))
			}
		}
		if q.Len() != len(ref) {
			return false
		}
		for _, want := range ref {
			if q.Pop() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}
