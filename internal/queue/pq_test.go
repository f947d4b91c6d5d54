package queue

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestPQOrdering checks the radix heap against a sorted reference over
// random monotone interleavings of pushes and pops: keys are pushed at or
// above the last popped key, with duplicates of queued and popped keys and
// keys up to math.MaxUint32-1, which lands in bucket 32 while the last
// popped key is below 1<<31.
func TestPQOrdering(t *testing.T) {
	const top = math.MaxUint32 - 1
	rng := rand.New(rand.NewSource(5))
	var pq PQ
	pushedTop := 0
	for round := 0; round < 300; round++ {
		pq.Reset()
		var ref []Item // queued items in push order
		last := uint32(0)
		key := func() uint32 {
			switch rng.Intn(6) {
			case 0:
				return last
			case 1:
				if len(ref) > 0 {
					return ref[rng.Intn(len(ref))].D
				}
			case 2:
				return top
			case 3:
				return last + uint32(rng.Int63n(int64(min(top-last, 15))+1))
			}
			return last + uint32(rng.Int63n(int64(top-last)+1))
		}
		for step := 0; step < 200 || len(ref) > 0; step++ {
			if step < 200 && (len(ref) == 0 || rng.Intn(3) > 0) {
				it := Item{V: uint32(step), D: key()}
				if it.D == top && last < 1<<31 {
					pushedTop++
				}
				pq.PushItem(it)
				ref = append(ref, it)
			} else {
				it := pq.PopItem()
				lo := slices.MinFunc(ref, func(a, b Item) int { return cmp.Compare(a.D, b.D) }).D
				i := slices.Index(ref, it)
				if it.D != lo || i < 0 {
					t.Fatalf("round %d step %d: popped %+v, want an item of key %d from the queue", round, step, it, lo)
				}
				ref = slices.Delete(ref, i, i+1)
				last = it.D
			}
			if pq.Len() != len(ref) {
				t.Fatalf("round %d step %d: Len %d, want %d", round, step, pq.Len(), len(ref))
			}
		}
	}
	if pushedTop == 0 {
		t.Error("no key reached bucket 32")
	}

	// A reused queue allocates nothing once its buckets have grown.
	cycle := func() {
		pq.Reset()
		for d := uint32(0); d < 64; d++ {
			pq.PushItem(Item{V: d, D: d * 3 % 64})
			pq.PushItem(Item{V: d, D: top - d})
		}
		for pq.Len() > 0 {
			pq.PopItem()
		}
	}
	if a := testing.AllocsPerRun(10, cycle); a != 0 {
		t.Errorf("warm push/pop cycle: %v allocs, want 0", a)
	}
}
