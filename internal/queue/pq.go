package queue

import "math/bits"

// Item is a priority-queue element: vertex V at distance D (a uint32,
// spelt uint32 here because package graph imports this one).
type Item struct {
	V uint32
	D uint32
}

// PQ is a monotone radix heap of Items ordered by distance (Ahuja,
// Mehlhorn, Orlin & Tarjan, JACM 1990). It relies on the Dijkstra
// contract: every key pushed is at least the key last popped (0 after
// Reset), which holds whenever keys are a popped distance plus a
// non-negative weight. A push that breaks the contract is a bug and pops
// out of order.
//
// Bucket i holds the keys d with bits.Len32(d ^ last) = i, where last is
// the key last popped; bucket 0 holds keys equal to last. A push is one
// append. A pop takes from bucket 0, first refilling it from the lowest
// non-empty bucket when it is empty: that bucket's minimum becomes last and
// its items move to strictly lower buckets, so each item moves at most 32
// times over its life in the queue. Items of equal key pop in unspecified
// order. The zero PQ is empty and ready to use; the buckets keep their
// capacity across Reset, so a reused PQ allocates nothing in steady state.
type PQ struct {
	b    [33][]Item
	last uint32
	n    int
}

// Len returns the number of queued items, stale ones included.
func (p *PQ) Len() int { return p.n }

// PushItem inserts it; it.D must be at least the key last popped.
func (p *PQ) PushItem(it Item) {
	i := bits.Len32(it.D ^ p.last)
	p.b[i] = append(p.b[i], it)
	p.n++
}

// PopItem removes and returns a minimum-distance item. The queue must not
// be empty.
func (p *PQ) PopItem() Item {
	if len(p.b[0]) == 0 {
		p.refill()
	}
	b0 := p.b[0]
	it := b0[len(b0)-1]
	p.b[0] = b0[:len(b0)-1]
	p.n--
	return it
}

// refill makes the minimum of the lowest non-empty bucket the new last key
// and redistributes that bucket: its keys agree with last on every bit from
// its index up, so each lands in a lower bucket, the minimum in bucket 0.
func (p *PQ) refill() {
	i := 1
	for len(p.b[i]) == 0 {
		i++
	}
	src := p.b[i]
	m := src[0].D
	for _, it := range src[1:] {
		m = min(m, it.D)
	}
	p.last = m
	for _, it := range src {
		j := bits.Len32(it.D ^ m)
		p.b[j] = append(p.b[j], it)
	}
	p.b[i] = src[:0]
}

// Reset empties the queue, keeping each bucket's capacity.
func (p *PQ) Reset() {
	for i := range p.b {
		p.b[i] = p.b[i][:0]
	}
	p.last, p.n = 0, 0
}
