package wfm

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"wfserverless/internal/dag"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
)

// dispatchItem is one runnable task handed from the event loop to the
// worker pool, identified by its interned DAG ID.
type dispatchItem struct {
	id    int32
	ready time.Duration // when the scheduler released the task
}

// runLoop is the execution core for both Scheduling values: a
// dag.Scheduler tracks readiness in O(edges) total over the compiled
// CSR — the whole event loop runs on interned int32 task IDs, with
// strings only appearing in the TaskResults handed back to callers — a
// fixed worker pool issues the HTTP invocations, and a completion
// channel feeds finished tasks' IDs back into the single-threaded event
// loop. Every task's TaskResult is a slot, by ID, of one slab made per
// run: whoever accounts for the task — the worker that ran it, the seed
// pass, skip propagation — fills the slot, and the event loop reads it
// after the task's ID has come back. Options.Scheduling selects one thing only, the release rule:
// ScheduleDependency hands newly-ready tasks to the pool at once;
// SchedulePhases parks them until nothing is in flight, sleeps
// PhaseDelay, and releases them together — the paper's phase loop
// (Section III-C). On a fresh run those groups are exactly the CSR's
// level slices (a task's level is 1 + its deepest parent's); after
// seeding from a journal or the memo cache a group may span levels, but
// no task is ever released before its parents completed. Per-task input
// waits use the shared drive's change notification (sharedfs.Watcher)
// where available.
//
// Failure semantics: descendants of a failed function are never invoked
// (their inputs cannot appear) and are recorded as skipped failures.
// Without ContinueOnError the first failure also cancels everything
// in flight or queued. On context cancellation the loop stops
// dispatching, drains the workers, records partial TaskResults, and
// returns ctx.Err() with no goroutines left behind. A task's
// transitions are emitted here (ready, skipped) and in runTask.
func (m *Manager) runLoop(ctx context.Context, c *Compiled, st *runState, res *Result) error {
	w, csr, p := c.w, c.csr, c.plan
	sched := dag.NewSchedulerCSR(csr)
	barrier := m.opts.Scheduling == SchedulePhases

	start := time.Now()
	root, finishTrace := m.startRunTrace(w.Name, res)
	defer finishTrace()
	m.traceReplay(root, st)
	m.traceMemo(root, st)
	// A cancelled, failed or aborted run reports how long it ran too.
	defer func() {
		res.Wall = time.Since(start)
		res.Makespan = res.Wall.Seconds() / m.opts.TimeScale
	}()
	// Header: stage external inputs so root functions find their data.
	if err := m.stageHeader(p, res, start); err != nil {
		return err
	}
	n := p.len()
	results := make([]TaskResult, n)
	for id := range results {
		task := p.tasks[id]
		results[id] = TaskResult{Name: task.Name, Category: task.Category, Phase: int(csr.Level(int32(id))) + 1}
	}

	// Fold the pre-completed set — the journal's verified done-set plus
	// the memo cache's verified hits — into the scheduler before any
	// dispatch: seeded tasks are recorded as results, never invoked,
	// and the ready frontier starts past them.
	if seeds := st.seedIDs(); len(seeds) > 0 {
		if err := sched.SeedCompletedIDs(seeds); err != nil {
			return fmt.Errorf("wfm: seeding pre-completed state: %w", err)
		}
		for _, id := range seeds {
			tr := &results[id]
			if st.rec != nil && st.rec.doneSet[id] {
				tr.Recovered = true
				tr.Attempts = int(st.rec.attempts[id])
			} else {
				tr.Memoized = true
			}
			res.Tasks[tr.Name] = tr
		}
		n -= len(seeds)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The attempt path lives as long as runCtx. Its close (runs before
	// cancel) flushes any linger-window stragglers on every exit path;
	// breaker transitions belong in the Result on every exit path too,
	// including aborts and cancellations.
	rs := m.newResilience(runCtx, p, start, st)
	defer func() { res.Breakers = rs.take() }()
	defer rs.close()

	workers := m.opts.MaxParallel
	if workers <= 0 || workers > n {
		workers = n
	}
	if workers == 0 {
		workers = 1 // fully-recovered run: the loop below drains instantly
	}
	// Both channels hold every task, so neither workers nor the event
	// loop can ever block on the other side having gone away.
	dispatch := make(chan dispatchItem, n)
	completions := make(chan int32, n)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range dispatch {
				m.runTask(runCtx, p, item, &results[item.id], start, rs, root, st)
				completions <- item.id
			}
		}()
	}

	inflight := 0
	release := func(ids []int32) {
		if len(ids) == 0 {
			return
		}
		now := time.Since(start)
		st.emit(transition{kind: tReady, id: -1, n: len(ids)})
		inflight += len(ids)
		for _, id := range ids {
			dispatch <- dispatchItem{id: id, ready: now}
		}
	}

	record := func(tr *TaskResult) {
		res.Tasks[tr.Name] = tr
		if tr.Err != nil {
			res.Failed = append(res.Failed, tr.Name)
		}
	}

	// Event loop: runs in this goroutine only, so scheduler and result
	// state need no locking. Every task is accounted exactly once —
	// via a worker completion or via skip propagation from a failed
	// ancestor — so the loop terminates when the count drains. A
	// scheduler-state error breaks out instead of returning so the
	// worker pool is always drained below, never leaked. The ID slices
	// the scheduler returns are scratch, valid until its next call —
	// release, the skip loop and the copy into parked consume them
	// before that.
	var stateErr error
	var parked []int32 // barrier only: ready tasks held for the next group
	release(sched.TakeReadyIDs())
	for accounted := 0; accounted < n && stateErr == nil; {
		id := <-completions
		accounted++
		inflight--
		tr := &results[id]
		record(tr)
		var newly []int32
		if tr.Err != nil {
			if !m.opts.ContinueOnError {
				cancel()
			}
			skipped, serr := sched.FailID(id)
			if serr != nil {
				stateErr = fmt.Errorf("wfm: scheduler state: %w", serr)
				break
			}
			now := time.Since(start)
			for _, sid := range skipped {
				accounted++
				skip := &results[sid]
				skip.Ready, skip.Start, skip.End = now, now, now
				skip.Err = fmt.Errorf("wfm: %s: skipped: ancestor %s failed", skip.Name, tr.Name)
				st.emit(transition{kind: tSkipped, id: sid, tr: skip})
				record(skip)
			}
		} else {
			var serr error
			if newly, serr = sched.CompleteID(id); serr != nil {
				stateErr = fmt.Errorf("wfm: scheduler state: %w", serr)
				break
			}
		}
		// The release rule, the one thing Scheduling selects.
		if !barrier {
			release(newly)
			continue
		}
		parked = append(parked, newly...)
		if inflight == 0 && len(parked) > 0 {
			// The paper's brief inter-phase delay; nothing follows the last
			// group, so nothing is slept after it. A cancelled run skips
			// the wait and lets the group fail fast on the workers.
			t := time.NewTimer(m.scaled(m.opts.PhaseDelay))
			select {
			case <-runCtx.Done():
				t.Stop()
			case <-t.C:
			}
			release(parked)
			parked = parked[:0]
		}
	}
	if stateErr != nil {
		// Abort in-flight work before draining; queued items still run
		// (and fail fast on the cancelled context) so workers exit.
		cancel()
	}
	close(dispatch)
	wg.Wait()
	sort.Strings(res.Failed)
	if stateErr != nil {
		return stateErr
	}

	// The static level structure, for analysis, Gantt and per-phase
	// breakdowns; under SchedulePhases a fresh run's release groups are
	// these levels.
	phases := levelPhases(csr)
	res.Phases = append(res.Phases, phases...)
	tail := &TaskResult{
		Name: TailName, Category: "tail",
		Phase: len(phases) + 1,
		Start: time.Since(start), End: time.Since(start),
	}
	res.Tasks[TailName] = tail
	res.Phases = append(res.Phases, []string{TailName})

	if err := ctx.Err(); err != nil {
		return err
	}
	if len(res.Failed) > 0 {
		return fmt.Errorf("wfm: %d function(s) failed: %v", len(res.Failed), res.Failed)
	}
	return nil
}

// runTask executes one dispatched task on a worker, into tr, the task's
// slot of the run's result slab: wait for its input files (event-driven
// on drives that support watching), acquire the gate, then invoke. The
// task starts once the gate is granted; one that fails before that
// (cancelled, inputs missing, gate refused) made no attempt.
func (m *Manager) runTask(ctx context.Context, p *invocationPlan, item dispatchItem, tr *TaskResult, start time.Time, rs *resilience, root *obs.Span, st *runState) {
	task := p.tasks[item.id]
	tr.Ready = item.ready
	ts := m.opts.Tracer.StartChildOf(root, task.Name)
	ts.SetStart(start.Add(item.ready))
	if st.memo != nil {
		ts.SetAttr("memo_hit", "false")
	}
	finish := func() {
		tr.End = time.Since(start)
		kind := tDone
		if tr.Err != nil {
			kind = tFailed
		}
		st.emit(transition{kind: kind, id: item.id, tr: tr})
		m.finishTaskSpan(ts, tr)
	}
	fail := func(err error) {
		tr.Start, tr.Err = time.Since(start), err
		finish()
	}
	if err := ctx.Err(); err != nil {
		fail(err)
		return
	}
	if inputs := p.inputs(item.id); len(inputs) > 0 && !sharedfs.AllExist(m.opts.Drive, inputs) {
		waitCtx, cancel := context.WithTimeout(ctx, m.scaled(m.opts.InputWait))
		missing, err := sharedfs.WaitFor(waitCtx, m.opts.Drive, inputs, m.scaled(m.opts.InputWait)/100)
		cancel()
		if err != nil {
			fail(fmt.Errorf("wfm: %s: inputs missing on shared drive: %v: %w", task.Name, missing, err))
			return
		}
	}
	if g := m.opts.Gate; g != nil {
		if err := g.Acquire(ctx); err != nil {
			fail(err)
			return
		}
		defer g.Release()
	}
	tr.Start = time.Since(start)
	st.emit(transition{kind: tStart, id: item.id, tr: tr})
	tr.Response, tr.Attempts, tr.Err = m.invoke(ctx, p, item.id, rs, ts)
	finish()
}
