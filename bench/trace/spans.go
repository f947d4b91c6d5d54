package main

import (
	"sync"
	"time"
)

// span is one call into one layer for one input.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing layer's span, -1 for none
	Req    int    `json:"req"`    // the input (request or update) the span serves
}

// tracer keeps every span in memory; they are written out once at the end
// so recording stays a slice append. Spans from the repair engine's worker
// goroutines arrive through task, under mu.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// task records a finished per-landmark repair task of duration d; it is
// called from worker goroutines while the parent repair span is open.
func (t *tracer) task(d time.Duration, parent, req int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: "repair.task", Start: now - int64(d), End: now, Parent: parent, Req: req})
	t.mu.Unlock()
}

// spanCost measures what recording one span costs, so per-layer numbers
// can be read against it.
func spanCost() time.Duration {
	const n = 100_000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", -1, i))
	}
	return time.Since(start) / n
}
