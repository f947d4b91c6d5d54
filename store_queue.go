package dynhl

import (
	"sync/atomic"
	"time"
)

// This file is the group-commit write pipeline behind Store.ApplyCtx.
//
// Concurrent callers enqueue their op batches on the store's apply queue
// and park on a promised-epoch future. A committer goroutine — spawned on
// demand, retired when the queue drains — takes everything waiting, forms
// one group, and repairs all of it on a single copy-on-write fork; a
// publisher goroutine then freezes that fork into the packed read form,
// appends the combined batch to the durability layer as one WAL record
// (one fsync covers every coalesced caller) and publishes it as one epoch.
// The two run as a pipeline: while the publisher packs, appends and fsyncs
// group N, the committer is already repairing group N+1 on a fork of N's
// still-unpublished working copy, so repair latency and commit latency
// overlap instead of adding up.
//
// Per-caller all-or-nothing survives coalescing: each caller's ops are
// applied as one contiguous segment, and a segment that fails validation
// rejects only that caller — the group is re-repaired without it, so what
// publishes is exactly what a serial execution in arrival order would have
// produced. A rejection observed against a predecessor that later fails to
// commit is provisional and re-validated, so callers never see errors
// caused by state that was never published.

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

// rejection is a caller whose ops failed validation, held unresolved while
// the state it was validated against is still uncommitted.
type rejection struct {
	req   *applyReq
	epoch uint64 // the epoch the ops were validated against
	err   error
}

// commitGroup is one coalesced batch travelling down the pipeline.
type commitGroup struct {
	reqs      []*applyReq       // every claimed caller, kept for redo after a failed base
	live      []*applyReq       // callers whose ops validated, in arrival order
	sums      [][]UpdateSummary // per live caller, parallel to live
	rejected  []rejection       // provisional until the group's base commits
	ops       []Op              // the live callers' ops concatenated: the WAL record
	work      variant           // the repaired fork
	epoch     uint64            // the epoch the group publishes as
	coalesced bool              // more than one caller shares the epoch
	err       error             // set by the publisher when the commit failed
}

// resolveRejections fails the rejected callers. Called only once the state
// their validation ran against is known committed (which is also why the
// rejection counter lives here: a provisional rejection redone against a
// republished base must not count twice).
func (g *commitGroup) resolveRejections(m *storeMetrics) {
	m.rejected.Add(uint64(len(g.rejected)))
	for _, rej := range g.rejected {
		rej.req.resolve(ApplyResult{Epoch: rej.epoch}, rej.err)
	}
	g.rejected = nil
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
// holds, repairs each on one fork of the pipeline tip, and hands the result
// to the publisher, overlapping the next group's repair with the previous
// group's pack, WAL append/fsync and publish. It holds the writer lock for
// its whole run, serialising the pipeline against Load, Reset and the
// Attach calls, and exits when the queue stays empty.
func (s *Store) commitLoop() {
	s.wmu.Lock()
	defer s.wmu.Unlock()

	pubc := make(chan *commitGroup)
	outc := make(chan *commitGroup, 1)
	go s.publishLoop(pubc, outc)
	defer close(pubc)

	var inflight *commitGroup // sent to the publisher, outcome not yet seen
	for {
		reqs := s.takeQueue()
		if reqs == nil {
			if inflight == nil {
				if s.tryStop() {
					return
				}
				continue // a request slipped in behind takeQueue
			}
			// Nothing to repair meanwhile: wait the inflight group out. Its
			// outcome only matters to a successor repaired on top of it,
			// and there is none.
			<-outc
			inflight = nil
			continue
		}
		var g *commitGroup
		if inflight == nil {
			sn := s.cur.Load()
			g = s.repairGroup(sn.o, sn.epoch, reqs, true)
		} else {
			// The pipeline overlap: repair on the unpublished tip while the
			// publisher is still packing and fsyncing it.
			g = s.repairGroup(inflight.work, inflight.epoch, reqs, false)
			prev := <-outc
			inflight = nil
			if prev.err != nil {
				// The tip never published, so everything repaired on it —
				// rejections included — was validated against state that no
				// longer exists. Redo the whole group on the published
				// snapshot.
				sn := s.cur.Load()
				g = s.repairGroup(sn.o, sn.epoch, g.reqs, true)
			} else {
				g.resolveRejections(s.metrics)
			}
		}
		if len(g.live) == 0 {
			continue // every caller was rejected: no epoch to publish
		}
		pubc <- g
		inflight = g
	}
}

// repairGroup coalesces reqs into one batch repaired on a single fork of
// base. Each caller's ops run as one contiguous segment; when a segment
// fails, that caller alone is rejected and the survivors are redone on a
// fresh fork — the group publishes exactly what a serial execution in
// arrival order would have, and a rejected caller's partial effects never
// reach the fork that publishes. baseCommitted says whether base is
// already published state; rejections against an unpublished base stay
// provisional (see commitLoop).
func (s *Store) repairGroup(base variant, baseEpoch uint64, reqs []*applyReq, baseCommitted bool) *commitGroup {
	start := time.Now()
	defer s.metrics.stageRepair.Since(start)
	g := &commitGroup{reqs: reqs, epoch: baseEpoch + 1}
	live := append([]*applyReq(nil), reqs...)
	for {
		work := base.fork()
		g.sums = g.sums[:0]
		failed := -1
		for i, r := range live {
			sums, err := applyOps(work, r.ops)
			if err != nil {
				g.rejected = append(g.rejected, rejection{req: r, epoch: baseEpoch, err: err})
				failed = i
				break
			}
			g.sums = append(g.sums, sums)
		}
		if failed < 0 {
			g.work = work
			g.live = live
			break
		}
		live = append(live[:failed], live[failed+1:]...)
		if len(live) == 0 {
			break // nothing survived; g.work stays nil
		}
	}
	if baseCommitted {
		g.resolveRejections(s.metrics)
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
	return g
}

// publishLoop is the publisher half of the pipeline: pack the repaired
// group into the read representation, append the combined batch to the
// durability layer as one record — one fsync covers every coalesced caller
// — publish the epoch, and resolve the futures. Outcomes flow back on outc
// so the committer knows whether the tip it repaired on actually became
// real.
func (s *Store) publishLoop(pubc <-chan *commitGroup, outc chan<- *commitGroup) {
	m := s.metrics
	for g := range pubc {
		m.groups.Inc()
		m.callers.Add(uint64(len(g.live)))
		m.opsApplied.Add(uint64(len(g.ops)))
		m.groupCallers.Observe(uint64(len(g.live)))
		m.groupOps.Observe(uint64(len(g.ops)))
		t := time.Now()
		g.work.packLabels()
		m.stagePack.Since(t)
		next := &snapshot{o: g.work, epoch: g.epoch}
		t = time.Now()
		err := s.commit(next, g.ops)
		m.stageCommit.Since(t)
		if err != nil {
			// Not durable, not published: the fork is discarded whole and
			// every co-batched caller sees the commit error.
			m.commitErrs.Inc()
			g.err = err
			for _, r := range g.live {
				r.resolve(ApplyResult{Epoch: g.epoch - 1}, err)
			}
			outc <- g
			continue
		}
		t = time.Now()
		s.publish(next)
		m.stagePublish.Since(t)
		for i, r := range g.live {
			r.resolve(ApplyResult{
				Summaries: g.sums[i],
				Epoch:     g.epoch,
				Coalesced: g.coalesced,
			}, nil)
		}
		outc <- g
	}
}
