package wfm

import (
	"context"
	"errors"
	"sync"
	"time"

	"wfserverless/internal/health"
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

// healthState is the run-scoped health plane: the tracker and the
// straggler log; its flags and speculations are transitions of the run
// (st). A run without Options.Health carries a nil healthState.
type healthState struct {
	st        *runState
	tracker   *health.Tracker
	speculate bool

	mu         sync.Mutex
	stragglers []health.Straggler
}

// newHealthState builds the run's health plane from Options.Health and
// starts the straggler watchdog.
func (m *Manager) newHealthState(st *runState) *healthState {
	ho := m.opts.Health
	hs := &healthState{st: st, speculate: ho.SpeculativeRetry}
	hs.tracker = health.NewTracker(health.TrackerConfig{
		StragglerFactor: ho.StragglerFactor,
		MinSamples:      ho.MinSamples,
		OnStraggler: func(s health.Straggler) {
			hs.mu.Lock()
			hs.stragglers = append(hs.stragglers, s)
			hs.mu.Unlock()
			st.emit(transition{kind: tStraggler, id: -1, str: &s})
		},
		OnResolved: func(s health.Straggler, lat time.Duration) {
			st.emit(transition{kind: tStragglerResolved, id: -1, str: &s, lat: lat})
		},
	})
	if ho.OnTracker != nil {
		ho.OnTracker(hs.tracker)
	}
	return hs
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
// request cancelled. The task's completion is one transition when invoke
// returns, so speculation can never double-record it.
func (hs *healthState) watch(next postFunc) postFunc {
	return func(tctx context.Context, a attempt) outcome {
		task := a.p.tasks[a.id]
		fl := hs.tracker.StartAttempt(task.Name, task.Command.APIURL, a.n)
		finish := func(o outcome) outcome {
			fl.Done(o.err != nil, o.resp != nil && o.resp.ColdStart)
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
		hs.st.emit(transition{kind: tSpeculate, id: a.id, n: a.n + 1})
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
		hs.st.emit(transition{kind: tSpeculateWin, id: a.id, n: a.n + 1})
		return finish(r.out)
	}
}
