package wfm

import (
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"wfserverless/internal/health"
)

// transitionKind names one state change of a run, of a task, or of one
// of a task's invocation attempts (DESIGN §3.7).
type transitionKind uint8

const (
	tRunStart  transitionKind = iota // the run begins: n tasks, res
	tMemoProbe                       // the memo probe resolved its hits: memo
	tReady                           // n tasks are released together
	tBreaker                         // an endpoint's circuit breaker changed state: bt
	tRunEnd                          // the run is over: n is its runEnd* status, res

	tStart   // the gate granted, the task's invocation begins: tr
	tDone    // the task completed: tr
	tFailed  // the task failed: tr, whose Attempts is 0 if it never started
	tSkipped // an ancestor failed, the task is never invoked: tr

	tRetry             // retry attempt n returned; shed if the breaker refused it
	tThrottle          // attempt n was answered with a Retry-After: err, shed
	tStraggler         // the watchdog flagged an in-flight attempt: str
	tStragglerResolved // a flagged attempt finished after lat: str
	tSpeculate         // a backup of attempt n was launched
	tSpeculateWin      // the backup of attempt n finished first
)

// transition is one state change. The code that makes the change emits
// it, once, and every sink of the run gets it by value. Its pointers
// point into what the run already holds — the task's result slot, the
// Result, the memo probe — so emitting allocates nothing per task.
type transition struct {
	kind transitionKind
	id   int32 // the task; -1 when run-level or a straggler
	n    int
	shed bool // the open breaker shed the attempt before it left the manager
	tr   *TaskResult
	err  error
	res  *Result
	memo *memoState
	str  *health.Straggler
	lat  time.Duration
	bt   *BreakerTransition
}

// sink consumes a run's transitions. Workers, the event loop, the
// breaker and the straggler watchdog all emit, so on must be safe for
// concurrent use.
type sink interface{ on(transition) }

// emit hands t to every sink of the run, in order.
func (st *runState) emit(t transition) {
	for _, s := range st.sinks {
		s.on(t)
	}
}

// newSinks composes the run's sinks once, in the fixed order journal →
// memo → flight recorder → monitor → log → hook. The hook is last, so a
// crash it injects comes after the completion is journaled. A plane that
// is off is not in the slice.
func (m *Manager) newSinks(st *runState, p *invocationPlan) []sink {
	var sinks []sink
	if st.rj != nil {
		sinks = append(sinks, st.rj)
	}
	if st.memo != nil {
		sinks = append(sinks, st.memo)
	}
	if h := m.opts.Health; h != nil && h.Recorder != nil {
		sinks = append(sinks, recorderSink{h.Recorder, p})
	}
	if m.opts.Monitor != nil {
		sinks = append(sinks, m.opts.Monitor)
	}
	if m.opts.Logger != nil {
		sinks = append(sinks, logSink{m.opts.Logger})
	}
	if m.opts.AfterTaskDone != nil {
		sinks = append(sinks, &hookSink{fn: m.opts.AfterTaskDone})
	}
	return sinks
}

// on appends the task's record, encoded into the journal's scratch
// buffer, so journaling a task allocates nothing in steady state. The
// run-end record is synced through; a failed append or sync is sticky
// and read once, at run end, as a Result warning.
func (rj *runJournal) on(t transition) {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	b := rj.scratch[:0]
	switch t.kind {
	case tMemoProbe:
		// Cache hits are completions this process will never re-invoke,
		// journaled with the framing: even a crash before the first
		// dispatch leaves a journal that resumes without re-running them.
		for _, id := range t.memo.hitIDs {
			b = appendTaskCompleted(b[:0], id, rj.p.tasks[id])
			rj.appendLocked(recTaskMemoized, b)
		}
	case tStart:
		rj.started[t.id]++ // counted across process lifetimes
		b = appendTaskStarted(b, t.id, int(rj.started[t.id]))
		rj.appendLocked(recTaskStarted, b)
	case tDone:
		b = appendTaskCompleted(b, t.id, rj.p.tasks[t.id])
		rj.appendLocked(recTaskCompleted, b)
	case tFailed, tSkipped:
		b = appendTaskFailed(b, t.id, t.kind == tSkipped, t.tr.Err.Error())
		rj.appendLocked(recTaskFailed, b)
	case tRunEnd:
		b = appendRunEnd(b, byte(t.n), len(t.res.Failed))
		rj.appendLocked(recRunEnd, b)
		if err := rj.j.Sync(); err != nil && rj.failed == nil {
			rj.failed = err
		}
	}
	rj.scratch = b
}

func (ms *memoState) on(t transition) {
	switch t.kind {
	case tDone:
		ms.put(t.id, ms.p.tasks[t.id])
	case tRunEnd:
		// Flush the run's manifests for the next process's probe; an
		// error stays sticky in the cache for the run's warning.
		ms.cache.Sync()
	}
}

// recorderSink writes the flight recorder's (kind, task, endpoint,
// attempt, detail) tuples.
type recorderSink struct {
	rec *health.FlightRecorder
	p   *invocationPlan
}

func (s recorderSink) on(t transition) {
	if t.shed { // a shed attempt never reached the endpoint: no retry, no throttle
		return
	}
	var name, ep string
	if t.id >= 0 {
		task := s.p.tasks[t.id]
		name, ep = task.Name, task.Command.APIURL
	}
	switch t.kind {
	case tRunStart:
		s.rec.Record("run-start", "", "", 0, t.res.Workflow)
	case tRunEnd:
		s.rec.Record("run-end", "", "", 0, statusName(byte(t.n)))
	case tBreaker:
		s.rec.Record("breaker", "", t.bt.Endpoint, 0, t.bt.From+"->"+t.bt.To)
	case tStraggler:
		s.rec.Record("straggler", t.str.Task, t.str.Endpoint, 0,
			fmt.Sprintf("age %s vs median %s", t.str.Age, t.str.Median))
	case tStart:
		s.rec.Record("task-start", name, ep, 0, "")
	case tDone:
		s.rec.Record("task-done", name, ep, t.tr.Attempts, "")
	case tFailed:
		s.rec.Record("task-fail", name, ep, t.tr.Attempts, t.tr.Err.Error())
	case tRetry:
		s.rec.Record("retry", name, ep, t.n, "")
	case tThrottle:
		s.rec.Record("throttle", name, ep, t.n, t.err.Error())
	case tSpeculate:
		s.rec.Record("speculate", name, ep, t.n, "")
	case tSpeculateWin:
		s.rec.Record("speculate-win", name, ep, t.n, "")
	}
}

func (mo *Monitor) on(t transition) {
	switch t.kind {
	case tRunStart:
		mo.mu.Lock()
		mo.workflow, mo.scheduling, mo.total = t.res.Workflow, t.res.Scheduling.String(), int64(t.n)
		mo.mu.Unlock()
	case tMemoProbe:
		mo.memoHits.Add(int64(len(t.memo.hitIDs)))
		mo.memoMisses.Add(int64(t.memo.misses))
	case tReady:
		mo.ready.Add(int64(t.n))
	case tStart:
		mo.ready.Add(-1)
		mo.running.Add(1)
	case tDone, tFailed:
		if t.tr.Attempts == 0 { // failed before it started
			mo.ready.Add(-1)
		} else {
			mo.running.Add(-1)
			mo.latency.ObserveDuration(t.tr.End - t.tr.Start)
		}
		if t.kind == tDone {
			mo.done.Add(1)
		} else {
			mo.failed.Add(1)
		}
	case tSkipped:
		mo.failed.Add(1)
	case tRetry:
		mo.retries.Add(1)
	case tBreaker:
		if t.bt.To == BreakerOpen {
			mo.breakersOpen.Add(1)
		}
		if t.bt.From == BreakerOpen {
			mo.breakersOpen.Add(-1)
		}
	case tStraggler:
		mo.stragglers.Add(1)
		mo.stragglersTotal.Add(1)
	case tStragglerResolved:
		mo.stragglers.Add(-1)
	case tSpeculate:
		mo.specRetries.Add(1)
	case tSpeculateWin:
		mo.specWins.Add(1)
	}
}

// logSink writes the run's structured log: start and end, task
// failures, breaker transitions and stragglers.
type logSink struct{ l *slog.Logger }

func (s logSink) on(t transition) {
	switch t.kind {
	case tRunStart:
		s.l.Info("workflow run starting", "workflow", t.res.Workflow, "tasks", t.n, "scheduling", t.res.Scheduling.String())
	case tRunEnd:
		s.l.Info("workflow run finished", "workflow", t.res.Workflow, "wall", t.res.Wall, "failed", len(t.res.Failed))
	case tFailed, tSkipped:
		s.l.Warn("task failed", "task", t.tr.Name, "phase", t.tr.Phase, "attempts", t.tr.Attempts, "err", t.tr.Err)
	case tBreaker:
		s.l.Warn("circuit breaker transition", "endpoint", t.bt.Endpoint, "from", t.bt.From, "to", t.bt.To, "failure_rate", t.bt.FailureRate)
	case tStraggler:
		s.l.Warn("straggler detected", "task", t.str.Task, "endpoint", t.str.Endpoint, "age", t.str.Age, "median", t.str.Median)
	case tStragglerResolved:
		s.l.Info("straggler resolved", "task", t.str.Task, "endpoint", t.str.Endpoint, "latency", t.lat)
	}
}

// hookSink calls Options.AfterTaskDone with the count of tasks this
// process completed.
type hookSink struct {
	fn        func(int)
	completed atomic.Int64
}

func (h *hookSink) on(t transition) {
	if t.kind == tDone {
		h.fn(int(h.completed.Add(1)))
	}
}
