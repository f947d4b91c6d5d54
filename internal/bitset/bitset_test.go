package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetClearGet(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len: got %d", s.Len())
	}
	for _, i := range []uint32{0, 1, 63, 64, 127, 129} {
		if s.Get(i) {
			t.Errorf("bit %d should start clear", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if s.Count() != 6 {
		t.Errorf("Count: got %d, want 6", s.Count())
	}
	s.Clear(64)
	if s.Get(64) || s.Count() != 5 {
		t.Errorf("Clear(64) failed: count %d", s.Count())
	}
}

func TestReset(t *testing.T) {
	s := New(100)
	for i := uint32(0); i < 100; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Errorf("Count after Reset: %d", s.Count())
	}
}

func TestGrow(t *testing.T) {
	s := New(10)
	s.Set(5)
	s.Grow(500)
	if !s.Get(5) {
		t.Error("Grow lost bit 5")
	}
	s.Set(499)
	if !s.Get(499) || s.Count() != 2 {
		t.Errorf("bits after grow: count %d", s.Count())
	}
	s.Grow(100) // no-op shrink attempt
	if s.Len() != 500 {
		t.Errorf("Len after smaller Grow: %d", s.Len())
	}
}

func TestQuickMirrorsMap(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(1 << 16)
		m := map[uint32]bool{}
		for i, op := range ops {
			v := uint32(op)
			if i%4 == 3 {
				s.Clear(v)
				delete(m, v)
			} else {
				s.Set(v)
				m[v] = true
			}
		}
		if s.Count() != len(m) {
			return false
		}
		for v := range m {
			if !s.Get(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
