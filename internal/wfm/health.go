package wfm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wfserverless/internal/health"
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
	if h.StragglerFactor < 0 || h.MinSamples < 0 {
		return errors.New("wfm: negative Health StragglerFactor/MinSamples")
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

func (hs *healthState) close() { hs.tracker.Close() }

// event forwards one structured event to the flight recorder.
func (hs *healthState) event(kind, task, endpoint string, attempt int, detail string) {
	if hs != nil {
		hs.rec.Record(kind, task, endpoint, attempt, detail)
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

// watch is the health plane's layer of the attempt path: the attempt
// registers with the tracker, and the manager selects on the watchdog's
// flag channel next to the attempt's own completion. A flagged attempt
// is annotated on its spans; with SpeculativeRetry one backup attempt
// races the primary through next and the first success wins, the loser's
// request cancelled. The caller journals/memoizes the task exactly once
// when invoke returns, so speculation can never double-record it. Retried
// and throttled attempts that reach this layer go to the flight recorder.
func (hs *healthState) watch(next postFunc) postFunc {
	return func(tctx context.Context, a attempt) outcome {
		task := a.p.tasks[a.id]
		name, ep := task.Name, task.Command.APIURL
		if a.n > 0 {
			hs.event("retry", name, ep, a.n+1, "")
		}
		fl := hs.tracker.StartAttempt(name, ep, a.n)
		finish := func(o outcome) outcome {
			fl.Done(o.err != nil, o.resp != nil && o.resp.ColdStart)
			if o.err != nil && o.retryAfter > 0 {
				hs.event("throttle", name, ep, a.n+1, o.err.Error())
			}
			return o
		}

		// Both branches report on one channel with a slot each, so an
		// abandoned loser never leaks its goroutine.
		type raced struct {
			out    outcome
			backup bool
		}
		results := make(chan raced, 2)
		launch := func(ctx context.Context, backup bool) {
			go func() { results <- raced{next(ctx, a), backup} }()
		}
		primCtx, primCancel := context.WithCancel(tctx)
		defer primCancel()
		launch(primCtx, false)
		select {
		case r := <-results:
			return finish(r.out)
		case <-fl.Flagged():
		}

		// Flagged mid-flight.
		a.span.SetAttr("straggler", "true")
		a.task.SetAttr("straggler", "true")
		if !hs.speculate {
			return finish((<-results).out)
		}
		hs.tracker.SpeculationLaunched()
		hs.m.opts.Monitor.speculated()
		hs.event("speculate", name, ep, a.n+1, "")
		backCtx, backCancel := context.WithCancel(tctx)
		defer backCancel()
		launch(backCtx, true)

		// The first success wins. When the backup fails first the primary
		// decides; when both fail the primary's outcome is reported so
		// retry classification matches the unspeculated path.
		r := <-results
		if r.out.err != nil {
			other := <-results
			switch {
			case r.backup:
				return finish(other.out)
			case other.out.err != nil:
				return finish(r.out)
			}
			r = other
		}
		if !r.backup {
			return finish(r.out)
		}
		fl.SpeculativeWin()
		hs.m.opts.Monitor.speculationWon()
		hs.event("speculate-win", name, ep, a.n+1, "")
		return finish(r.out)
	}
}
