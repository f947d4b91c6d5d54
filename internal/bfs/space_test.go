package bfs

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestSpaceFitGrowsGeometrically pins the query scratch of a graph that
// gains one vertex between queries: the distance vectors are reallocated
// only when their capacity runs out, which after the first growth is not
// within a thousand insertions, and every entry the next query may read is
// graph.Inf. Get is the pool plus fit.
func TestSpaceFitGrowsGeometrically(t *testing.T) {
	const n, k = 10_000, 1_000
	var sp SpacePool
	s := sp.Get(n)
	reallocs := 0
	for i := 1; i <= k; i++ {
		u, v := &s.DistU[0], &s.DistV[0]
		s.fit(n + i)
		if &s.DistU[0] != u || &s.DistV[0] != v {
			reallocs++
		}
		if len(s.DistU) < n+i || len(s.DistV) < n+i {
			t.Fatalf("after %d insertions: %d/%d entries for %d vertices", i, len(s.DistU), len(s.DistV), n+i)
		}
		for j := range s.DistU {
			if s.DistU[j] != graph.Inf || s.DistV[j] != graph.Inf {
				t.Fatalf("after %d insertions: entry %d is %d/%d, want Inf", i, j, s.DistU[j], s.DistV[j])
			}
		}
	}
	if reallocs > 1 {
		t.Fatalf("%d reallocations over %d insertions, want at most 1", reallocs, k)
	}
	sp.Put(s)
	if s := sp.Get(n + k + 1); len(s.DistU) < n+k+1 || s.DistU[n+k] != graph.Inf || s.DistV[n+k] != graph.Inf {
		t.Fatal("Get returned scratch too short or not Inf")
	}
}

// TestSpacePoolKeepsScratch pins the pool behind Spaces: a returned
// scratch survives garbage collections and is what a Get on another
// goroutine receives, a warm Get/Put pair allocates nothing, and the pool
// keeps at most GOMAXPROCS scratches.
func TestSpacePoolKeepsScratch(t *testing.T) {
	var sp SpacePool
	s := sp.Get(100)
	sp.Put(s)
	runtime.GC()
	runtime.GC()
	got := make(chan *QuerySpace)
	go func() { got <- sp.Get(100) }()
	if g := <-got; g != s {
		t.Fatal("after two GCs, Get on another goroutine returned a fresh scratch, want the one Put")
	}
	sp.Put(s)
	if a := testing.AllocsPerRun(100, func() { sp.Put(sp.Get(100)) }); a != 0 {
		t.Errorf("Get/Put: %v allocs, want 0", a)
	}

	procs := runtime.GOMAXPROCS(0)
	held := make([]*QuerySpace, procs+1)
	for i := range held {
		held[i] = sp.Get(100)
	}
	for _, s := range held {
		sp.Put(s)
	}
	kept := 0
	for i := range sp.slots {
		if sp.slots[i].s.Load() != nil {
			kept++
		}
	}
	if kept != procs {
		t.Errorf("pool keeps %d scratches after %d Puts, want GOMAXPROCS = %d", kept, len(held), procs)
	}

	// A scratch in the last slot, as one is left after GOMAXPROCS shrinks,
	// is still handed out.
	var far SpacePool
	s = new(QuerySpace)
	far.slots[maxProcs-1].s.Store(s)
	if far.Get(100) != s {
		t.Error("Get allocated while the last slot held a scratch")
	}
}

// TestSpacePoolExclusive has more goroutines than processors draw scratch
// from one pool at once: no two may hold the same scratch, which each
// checks by marking an entry while it holds it.
func TestSpacePoolExclusive(t *testing.T) {
	var sp SpacePool
	var wg sync.WaitGroup
	for g := 1; g <= 2*runtime.GOMAXPROCS(0)+1; g++ {
		wg.Add(1)
		go func(id graph.Dist) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := sp.Get(64)
				if s.DistU[0] != graph.Inf {
					t.Errorf("scratch handed out while marked by %d", s.DistU[0])
					return
				}
				s.DistU[0] = id
				runtime.Gosched()
				if s.DistU[0] != id {
					t.Errorf("scratch of %d rewritten to %d while held", id, s.DistU[0])
					return
				}
				s.DistU[0] = graph.Inf
				sp.Put(s)
			}
		}(graph.Dist(g))
	}
	wg.Wait()
}
