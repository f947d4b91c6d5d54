// Package bitset provides a compact bit vector used to mark visited vertices
// during graph traversals.
package bitset

import "math/bits"

// Set is a fixed-capacity bit vector. The zero value is an empty set of
// capacity zero; use New or Grow to size it.
type Set struct {
	words []uint64
	size  int
}

// New returns a Set able to hold n bits, all clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), size: n}
}

// Len reports the capacity of the set in bits.
func (s *Set) Len() int { return s.size }

// Grow extends the capacity of the set to at least n bits, preserving
// existing bits.
func (s *Set) Grow(n int) {
	if n <= s.size {
		return
	}
	need := (n + 63) / 64
	if need > len(s.words) {
		w := make([]uint64, need)
		copy(w, s.words)
		s.words = w
	}
	s.size = n
}

// Set sets bit i.
func (s *Set) Set(i uint32) {
	s.words[i>>6] |= 1 << (i & 63)
}

// Clear clears bit i.
func (s *Set) Clear(i uint32) {
	s.words[i>>6] &^= 1 << (i & 63)
}

// Get reports whether bit i is set.
func (s *Set) Get(i uint32) bool {
	return s.words[i>>6]&(1<<(i&63)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset clears every bit, keeping capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}
