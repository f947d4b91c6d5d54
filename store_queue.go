package dynhl

import (
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the group-commit write pipeline behind Store.ApplyCtx.
//
// Concurrent callers enqueue their op batches on the store's apply queue
// and park on a promised-epoch future. Two goroutines, spawned on demand
// and retired when the queue drains, take each group of callers through
// four steps and publish it as one epoch:
//
//  1. Validate (committer). The committer takes everything waiting and
//     runs each caller's ops, in arrival order, through the variant's
//     validity checks (opCheck): the same check functions the repairs
//     call, over a view of the graph that records the accepted callers'
//     edits. A caller whose ops fail is rejected alone; the rest are the
//     group's live callers. No label work has happened yet.
//  2. Append (committer). The committer hands the group to the repairer
//     and appends the live callers' ops, concatenated in arrival order, to
//     the durability layer as one WAL record: one fsync covers every
//     coalesced caller.
//  3. Repair (repairer), while the disk works: the live callers' ops are
//     applied once to a fork of the previous group's labelling, whose
//     repairs write the label chunks they touch.
//  4. Publish (repairer), once the append returned: the snapshot is
//     swapped in and the futures resolve. A failed append discards the
//     repaired fork whole and fails every live caller.
//
// Only publish needs both the repaired labelling and the durable record,
// so the fsync hides the repair of its own group. The committer
// makes the blocking append itself and leaves the CPU work to the
// repairer: an append started on a goroutine of its own beside a running
// repair waits for a processor, on a small host until the repair is done.
//
// Appends run one at a time in epoch order, so the committer validates
// the next group against the labelling of the last successfully appended
// group, once the repairer has built it: an append that succeeded always
// publishes, so that state is final, and a group after a failed append is
// validated as if the failed one had never been formed. While the
// repairer still publishes group N, the committer already validates and
// appends group N+1. Per-caller all-or-nothing survives coalescing: what
// publishes is exactly what a serial execution in arrival order would
// have produced, and the log holds only ops that publish.

// applyReq request states: the committer CASes Pending→Claimed when it
// takes the request into a group; a cancelled caller CASes
// Pending→Abandoned to excise itself. Whichever CAS wins decides.
const (
	reqPending int32 = iota
	reqClaimed
	reqAbandoned
)

// applyReq is one caller's place on the apply queue: its ops and the
// promised-epoch future the pipeline resolves exactly once the ops commit
// or are rejected.
type applyReq struct {
	ops   []Op
	done  chan applyOutcome // buffered(1): the pipeline never blocks resolving
	state atomic.Int32
	enq   time.Time // when the caller enqueued; claimed-enq = coalesce wait
}

// applyOutcome is what a future resolves to.
type applyOutcome struct {
	res ApplyResult
	err error
}

// resolve fulfils the request's future.
func (r *applyReq) resolve(res ApplyResult, err error) {
	r.done <- applyOutcome{res: res, err: err}
}

// rejection is a caller whose ops failed validation.
type rejection struct {
	req *applyReq
	err error
}

// commitGroup is one coalesced batch travelling down the pipeline.
type commitGroup struct {
	live      []*applyReq       // callers whose ops validated, in arrival order
	sums      [][]UpdateSummary // per live caller, parallel to live
	rejected  []rejection       // resolved once epoch-1 is published
	ops       []Op              // the live callers' ops concatenated: the WAL record
	validated time.Duration     // validation time, charged to the repair stage
	epoch     uint64            // the epoch the group publishes as
	coalesced bool              // more than one caller shares the epoch
	work      variant           // the repaired fork; read once repaired is closed
	repaired  chan struct{}     // closed once work is built
	appended  chan struct{}     // closed once the append returned
	err       error             // the append's failure; read once appended is closed
	done      chan struct{}     // closed once every caller is resolved
}

// enqueue appends r to the apply queue, spawning the committer if none is
// running.
func (s *Store) enqueue(r *applyReq) {
	s.qmu.Lock()
	s.queue = append(s.queue, r)
	if !s.qrun {
		s.qrun = true
		go s.commitLoop()
	}
	s.qmu.Unlock()
}

// takeQueue claims every queued request in arrival order, dropping the ones
// whose callers abandoned them first. nil when nothing usable is waiting.
func (s *Store) takeQueue() []*applyReq {
	s.qmu.Lock()
	q := s.queue
	s.queue = nil
	s.qmu.Unlock()
	live := q[:0]
	for _, r := range q {
		if r.state.CompareAndSwap(reqPending, reqClaimed) {
			s.metrics.stageWait.Since(r.enq)
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live
}

// tryStop retires the committer when no request arrived since the last
// takeQueue; enqueue spawns a fresh one for the next burst. The re-check
// under qmu closes the race with an enqueue that saw qrun still true.
func (s *Store) tryStop() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if len(s.queue) > 0 {
		return false
	}
	s.qrun = false
	return true
}

// commitLoop is the committer: it forms groups from whatever the queue
// holds, validates each against the labelling of the last appended group,
// hands it to the repairer (repairLoop) and appends it. It holds
// the writer lock for its whole run, serialising the pipeline against
// Load, Reset and the Attach calls, and exits once the queue stays empty
// and the repairer has resolved every group.
func (s *Store) commitLoop() {
	s.wmu.Lock()
	defer s.wmu.Unlock()

	sn := s.cur.Load()
	repc := make(chan *commitGroup, 1)
	defer close(repc)
	go s.repairLoop(sn.o, repc)

	base, epoch := sn.o, sn.epoch // what the next group is validated against
	var pending *commitGroup      // appended, its repair not yet waited for
	var last *commitGroup         // the newest group handed to the repairer, until done
	for {
		reqs := s.takeQueue()
		if reqs == nil {
			if last == nil {
				if s.tryStop() {
					return
				}
				continue // a request slipped in behind takeQueue
			}
			// Wait for the repairer to resolve the last group. A request
			// arriving meanwhile could not be validated before the group's
			// repair is done anyway.
			<-last.done
			last = nil
			continue
		}
		if pending != nil {
			<-pending.repaired
			base, epoch = pending.work, pending.epoch
			pending = nil
		}
		g := s.validate(base.checker(), epoch, reqs)
		repc <- g
		last = g
		if len(g.live) == 0 {
			continue // every caller was rejected: no epoch to publish
		}
		start := time.Now()
		if d := s.durability(); d != nil {
			if err := d.Append(g.epoch, g.ops); err != nil {
				g.err = fmt.Errorf("dynhl: durability commit of epoch %d: %w", g.epoch, err)
			}
		}
		s.metrics.stageCommit.Since(start)
		close(g.appended)
		if g.err == nil {
			pending = g
		}
	}
}

// validate coalesces reqs into one group publishing as epoch+1: each
// caller's ops run through a fork of check, the pre-pass over the state at
// epoch, on top of the callers accepted before it.
func (s *Store) validate(check opCheck, epoch uint64, reqs []*applyReq) *commitGroup {
	start := time.Now()
	g := &commitGroup{
		epoch:    epoch + 1,
		repaired: make(chan struct{}),
		appended: make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, r := range reqs {
		try := check.fork()
		if _, err := applyOps(try, r.ops); err != nil {
			g.rejected = append(g.rejected, rejection{req: r, err: err})
			continue
		}
		check = try
		g.live = append(g.live, r)
	}
	switch len(g.live) {
	case 0:
	case 1:
		g.ops = g.live[0].ops
	default:
		g.coalesced = true
		n := 0
		for _, r := range g.live {
			n += len(r.ops)
		}
		g.ops = make([]Op, 0, n)
		for _, r := range g.live {
			g.ops = append(g.ops, r.ops...)
		}
	}
	g.validated = time.Since(start)
	return g
}

// repairLoop is the repairer: it takes the committer's groups in epoch
// order, repairs and publishes each on top of the last published
// labelling, tip, and resolves its callers. It exits when the committer
// closes repc.
func (s *Store) repairLoop(tip variant, repc <-chan *commitGroup) {
	for g := range repc {
		if len(g.live) > 0 {
			tip = s.repairGroup(tip, g)
		}
		// Rejections were judged against epoch-1, which is published by now.
		s.metrics.rejected.Add(uint64(len(g.rejected)))
		for _, rej := range g.rejected {
			rej.req.resolve(ApplyResult{Epoch: g.epoch - 1}, rej.err)
		}
		close(g.done)
	}
}

// repairGroup repairs the live callers of g once on a fork of tip and
// publishes the fork when g's append succeeded; it returns the labelling
// the next group builds on.
func (s *Store) repairGroup(tip variant, g *commitGroup) variant {
	m := s.metrics
	m.groups.Inc()
	m.callers.Add(uint64(len(g.live)))
	m.opsApplied.Add(uint64(len(g.ops)))
	m.groupCallers.Observe(uint64(len(g.live)))
	m.groupOps.Observe(uint64(len(g.ops)))
	start := time.Now()
	work := tip.fork()
	for _, r := range g.live {
		sums, err := applyOps(work, r.ops)
		if err != nil {
			// The ops may be durable already, so the store cannot back
			// out: validation and repair disagreeing is a bug.
			panic(fmt.Sprintf("dynhl: validated ops failed their repair: %v", err))
		}
		g.sums = append(g.sums, sums)
	}
	m.stageRepair.ObserveDuration(g.validated + time.Since(start))
	g.work = work
	close(g.repaired)
	t := time.Now()
	<-g.appended
	m.stageWALWait.Since(t)
	if g.err != nil {
		// Not durable, not published: the fork is discarded whole and
		// every co-batched caller sees the commit error.
		m.commitErrs.Inc()
		for _, r := range g.live {
			r.resolve(ApplyResult{Epoch: g.epoch - 1}, g.err)
		}
		return tip
	}
	t = time.Now()
	s.publish(&snapshot{o: work, epoch: g.epoch})
	m.stagePublish.Since(t)
	for i, r := range g.live {
		r.resolve(ApplyResult{
			Summaries: g.sums[i],
			Epoch:     g.epoch,
			Coalesced: g.coalesced,
		}, nil)
	}
	return work
}
