// Package fanout is the tiny worker-fan used by the parallel build, repair
// and label-write paths. It deliberately has no dependencies and no state: a call
// distributes n independent tasks over at most `workers` goroutines via an
// atomic counter, with the caller participating as worker 0 so that the
// workers==1 case never spawns and the workers==2 case spawns exactly one
// goroutine. Tasks are claimed dynamically, so uneven per-task cost (one
// landmark's BFS dominating) still balances.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a worker-count knob to an actual worker count: 0 (the
// default everywhere in this module) means GOMAXPROCS, negative values
// clamp to serial, anything else is taken literally.
func Resolve(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// Run executes fn(worker, task) for every task in [0, n), fanning across
// min(workers, n) workers. Each worker id in [0, workers) is used by at most
// one goroutine at a time, so fn may index per-worker scratch by its first
// argument. Run returns only after every task has completed (full barrier).
// Tasks must not depend on each other; the assignment of tasks to workers is
// nondeterministic, which is why callers merge results by task order, never
// by completion order.
func Run(workers, n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 {
		for t := 0; t < n; t++ {
			fn(0, t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func(worker int) {
		for {
			t := int(next.Add(1)) - 1
			if t >= n {
				return
			}
			fn(worker, t)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
}
