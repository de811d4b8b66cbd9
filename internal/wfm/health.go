package wfm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wfserverless/internal/health"
	"wfserverless/internal/obs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// HealthOptions enables the run-health plane: streaming per-endpoint
// latency baselines (constant-memory P² quantiles), live straggler
// detection against each endpoint's running median, optional
// speculative re-dispatch of flagged tasks, and a crash flight
// recorder. Nil disables everything and keeps the dispatch hot path
// allocation-identical to previous releases.
type HealthOptions struct {
	// StragglerFactor is k in the flagging criterion: an in-flight
	// attempt is a straggler once its age exceeds k × the endpoint's
	// running median attempt latency. Zero defaults to 3.
	StragglerFactor float64
	// MinSamples is how many completed attempts an endpoint needs
	// before its median is trusted for flagging. Zero defaults to 8.
	MinSamples int
	// MinAge is an absolute floor, in nominal seconds (scaled like
	// every other duration), on an attempt's age before it can be
	// flagged — so microsecond medians cannot flag scheduling jitter.
	MinAge float64
	// CheckInterval is the watchdog scan period in nominal seconds;
	// zero defaults to 25ms of wall time.
	CheckInterval float64
	// SpeculativeRetry re-dispatches a flagged task's attempt once and
	// takes whichever completion arrives first; the loser's request is
	// cancelled. The task is journaled and memoized exactly once either
	// way — speculation races HTTP attempts, not task completions.
	SpeculativeRetry bool
	// Recorder, when set, receives the run's structured event stream
	// (task transitions, retries, throttles, breaker flips, straggler
	// flags) in a fixed-size ring for post-mortem JSONL dumps.
	Recorder *health.FlightRecorder
	// OnTracker, when set, is called once per run with the run's
	// tracker, so a telemetry endpoint can include the per-endpoint
	// baseline series while the run is live.
	OnTracker func(*health.Tracker)
}

func (h *HealthOptions) validate() error {
	if h == nil {
		return nil
	}
	if h.StragglerFactor < 0 || h.MinSamples < 0 || h.MinAge < 0 || h.CheckInterval < 0 {
		return errors.New("wfm: negative Health StragglerFactor/MinSamples/MinAge/CheckInterval")
	}
	return nil
}

// HealthReport is the run-health summary attached to Result.Health when
// Options.Health is set.
type HealthReport struct {
	// Endpoints is the final per-endpoint baseline table, sorted by
	// endpoint name.
	Endpoints []health.EndpointStats
	// Stragglers lists every flagged attempt in flag order.
	Stragglers []health.Straggler
	// SpeculativeRetries counts backup attempts dispatched;
	// SpeculativeWins the flagged tasks whose backup finished first.
	SpeculativeRetries int64
	SpeculativeWins    int64
}

// healthState is the run-scoped health plane: the tracker, the flight
// recorder, and the straggler log. All methods are safe on a nil
// receiver — a run without Options.Health carries a nil healthState and
// pays one pointer test per hook.
type healthState struct {
	m         *Manager
	tracker   *health.Tracker
	rec       *health.FlightRecorder
	speculate bool

	mu         sync.Mutex
	stragglers []health.Straggler
}

// newHealthState builds the run's health plane from Options.Health and
// starts the straggler watchdog.
func (m *Manager) newHealthState() *healthState {
	ho := m.opts.Health
	hs := &healthState{m: m, rec: ho.Recorder, speculate: ho.SpeculativeRetry}
	hs.tracker = health.NewTracker(health.TrackerConfig{
		StragglerFactor: ho.StragglerFactor,
		MinSamples:      ho.MinSamples,
		MinAge:          m.scaled(ho.MinAge),
		CheckInterval:   m.scaled(ho.CheckInterval),
		OnStraggler: func(s health.Straggler) {
			hs.mu.Lock()
			hs.stragglers = append(hs.stragglers, s)
			hs.mu.Unlock()
			m.opts.Monitor.stragglerFlagged()
			hs.rec.Record("straggler", s.Task, s.Endpoint, 0,
				fmt.Sprintf("age %s vs median %s", s.Age, s.Median))
			if l := m.opts.Logger; l != nil {
				l.Warn("straggler detected", "task", s.Task, "endpoint", s.Endpoint,
					"age", s.Age, "median", s.Median)
			}
		},
		OnResolved: func(s health.Straggler, lat time.Duration) {
			m.opts.Monitor.stragglerResolved()
			if l := m.opts.Logger; l != nil {
				l.Info("straggler resolved", "task", s.Task, "endpoint", s.Endpoint,
					"latency", lat)
			}
		},
	})
	if ho.OnTracker != nil {
		ho.OnTracker(hs.tracker)
	}
	return hs
}

func (hs *healthState) close() {
	if hs != nil {
		hs.tracker.Close()
	}
}

// event forwards one structured event to the flight recorder.
func (hs *healthState) event(kind, task, endpoint string, attempt int, detail string) {
	if hs != nil {
		hs.rec.Record(kind, task, endpoint, attempt, detail)
	}
}

// taskStarted records a task's dispatch in the flight recorder.
func (hs *healthState) taskStarted(task *wfformat.Task) {
	if hs != nil {
		hs.rec.Record("task-start", task.Name, task.Command.APIURL, 0, "")
	}
}

// taskFinished records a task's terminal outcome in the flight recorder.
func (hs *healthState) taskFinished(task *wfformat.Task, tr *TaskResult) {
	if hs == nil {
		return
	}
	if tr.Err != nil {
		hs.rec.Record("task-fail", task.Name, task.Command.APIURL, tr.Attempts, tr.Err.Error())
		return
	}
	hs.rec.Record("task-done", task.Name, task.Command.APIURL, tr.Attempts, "")
}

// recordBatch feeds one flushed batch's occupancy into the baseline
// table.
func (hs *healthState) recordBatch(endpoint string, tasks int) {
	if hs != nil {
		hs.tracker.RecordBatch(endpoint, tasks)
	}
}

// report snapshots the run's health plane for Result.Health.
func (hs *healthState) report() *HealthReport {
	if hs == nil {
		return nil
	}
	launched, wins := hs.tracker.Speculations()
	hs.mu.Lock()
	str := append([]health.Straggler(nil), hs.stragglers...)
	hs.mu.Unlock()
	return &HealthReport{
		Endpoints:          hs.tracker.Snapshot(),
		Stragglers:         str,
		SpeculativeRetries: launched,
		SpeculativeWins:    wins,
	}
}

// specOutcome is one branch's result in the speculation race, shaped
// like invokeOnce's return plus which branch produced it.
type specOutcome struct {
	resp       *wfbench.Response
	retriable  bool
	retryAfter time.Duration
	err        error
	backup     bool
}

// attempt is invoke's attempt body under the health plane: the attempt
// registers with the tracker, and the manager selects on the watchdog's
// flag channel next to the attempt's own completion. A flagged attempt
// is annotated on its spans; with SpeculativeRetry one backup attempt
// races the primary and the first success wins, the loser's request
// cancelled. The caller journals/memoizes the task exactly once when
// invoke returns, so speculation can never double-record a completion.
func (hs *healthState) attempt(tctx context.Context, p *invocationPlan, id int32, rs *resilience, attempt int, as, parent *obs.Span) (*wfbench.Response, bool, time.Duration, error) {
	m := hs.m
	task := p.tasks[id]
	ep := task.Command.APIURL
	fl := hs.tracker.StartAttempt(task.Name, ep, attempt)

	// Buffered for both branches so an abandoned loser never leaks its
	// goroutine.
	ch := make(chan specOutcome, 2)
	launch := func(ctx context.Context, backup bool) {
		var o specOutcome
		o.backup = backup
		o.resp, o.retriable, o.retryAfter, o.err = rs.post(ctx, p, id, as.Context())
		ch <- o
	}
	primCtx, primCancel := context.WithCancel(tctx)
	defer primCancel()
	go launch(primCtx, false)

	finish := func(o specOutcome) (*wfbench.Response, bool, time.Duration, error) {
		fl.Done(o.err != nil, o.resp != nil && o.resp.ColdStart)
		return o.resp, o.retriable, o.retryAfter, o.err
	}

	select {
	case o := <-ch:
		return finish(o)
	case <-fl.Flagged():
	}

	// Flagged mid-flight.
	as.SetAttr("straggler", "true")
	parent.SetAttr("straggler", "true")
	if !hs.speculate {
		return finish(<-ch)
	}
	hs.tracker.SpeculationLaunched()
	m.opts.Monitor.speculated()
	hs.event("speculate", task.Name, ep, attempt+1, "")
	backCtx, backCancel := context.WithCancel(tctx)
	defer backCancel()
	go launch(backCtx, true)

	won := func(o specOutcome) (*wfbench.Response, bool, time.Duration, error) {
		if o.backup {
			fl.SpeculativeWin()
			m.opts.Monitor.speculationWon()
			hs.event("speculate-win", task.Name, ep, attempt+1, "")
		}
		return finish(o)
	}
	first := <-ch
	if first.err == nil {
		return won(first)
	}
	// The first finisher failed (possibly because the race's loser saw
	// its context cancelled — not in this path, the winner is still
	// running): give the other branch its chance.
	second := <-ch
	if second.err == nil {
		return won(second)
	}
	// Both failed: report the primary's outcome so retry classification
	// matches the unspeculated path.
	if first.backup {
		first = second
	}
	return finish(first)
}
