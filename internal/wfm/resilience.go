package wfm

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"wfserverless/internal/obs"
	"wfserverless/internal/wfbench"
)

// Sentinel errors of the invocation resilience layer.
var (
	// ErrTaskTimeout marks an invocation abandoned because the task's
	// own deadline (Options.TaskTimeout) expired. It is terminal: the
	// task's time budget is spent, so no further retries are attempted.
	ErrTaskTimeout = errors.New("task timeout")
	// ErrCircuitOpen marks an attempt shed because the endpoint's
	// circuit breaker is open: the endpoint's recent failure rate
	// crossed the threshold and the cooldown has not elapsed yet.
	ErrCircuitOpen = errors.New("circuit open")
)

// BreakerOptions configures the per-endpoint circuit breaker. The zero
// value disables it; set Enabled and the defaults below kick in for the
// remaining zero fields.
type BreakerOptions struct {
	// Enabled turns the breaker on.
	Enabled bool
	// Window is the sliding window of attempt outcomes per endpoint;
	// zero defaults to 20.
	Window int
	// FailureThreshold opens the breaker when the window's failure
	// rate reaches it (with at least MinSamples outcomes recorded);
	// zero defaults to 0.5.
	FailureThreshold float64
	// MinSamples is the minimum window fill before the threshold is
	// evaluated; zero defaults to 5.
	MinSamples int
	// Cooldown is how long (nominal seconds, scaled like every other
	// duration) an open breaker rejects attempts before letting
	// half-open probes through; zero defaults to 5.
	Cooldown float64
	// HalfOpenProbes is how many concurrent trial attempts a half-open
	// breaker admits; zero defaults to 1.
	HalfOpenProbes int
}

func (b *BreakerOptions) withDefaults() BreakerOptions {
	o := *b
	if o.Window <= 0 {
		o.Window = 20
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 0.5
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5
	}
	if o.HalfOpenProbes <= 0 {
		o.HalfOpenProbes = 1
	}
	return o
}

func (b *BreakerOptions) validate() error {
	if !b.Enabled {
		return nil
	}
	if b.FailureThreshold < 0 || b.FailureThreshold > 1 {
		return fmt.Errorf("wfm: breaker FailureThreshold %v outside [0,1]", b.FailureThreshold)
	}
	if b.Window < 0 || b.MinSamples < 0 || b.HalfOpenProbes < 0 {
		return errors.New("wfm: negative breaker window/samples/probes")
	}
	if b.Cooldown < 0 {
		return errors.New("wfm: negative breaker Cooldown")
	}
	return nil
}

// Breaker states as they appear in Result.Breakers and traces.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// BreakerTransition records one circuit-breaker state change during a
// run, surfaced in Result.Breakers and in the trace output.
type BreakerTransition struct {
	// Endpoint is the api_url the breaker guards.
	Endpoint string
	// From and To are breaker states (closed/open/half-open).
	From, To string
	// At is the offset from run start.
	At time.Duration
	// FailureRate is the sliding-window failure rate at the moment of
	// the transition (meaningful for transitions out of closed).
	FailureRate float64
}

// attemptOutcome classifies one finished attempt for the breaker.
type attemptOutcome int

const (
	outcomeSuccess attemptOutcome = iota // endpoint answered usefully
	outcomeFailure                       // endpoint-side failure (transport, 5xx, 429, timeout)
	outcomeAborted                       // run-level cancellation: not the endpoint's fault
)

// breaker is one endpoint's circuit breaker: closed counts outcomes in
// a sliding window and opens past the failure threshold; open rejects
// until the cooldown elapses; half-open admits a bounded number of
// probes and closes (or re-opens) on their outcome.
type breaker struct {
	opts     BreakerOptions
	cooldown time.Duration
	endpoint string
	rs       *resilience

	mu       sync.Mutex
	state    string
	window   []bool // true = failure
	idx      int
	filled   int
	failures int
	openedAt time.Time
	probes   int
}

func newBreaker(endpoint string, opts BreakerOptions, cooldown time.Duration, rs *resilience) *breaker {
	return &breaker{
		opts:     opts,
		cooldown: cooldown,
		endpoint: endpoint,
		rs:       rs,
		state:    BreakerClosed,
		window:   make([]bool, opts.Window),
	}
}

// transition must be called with b.mu held.
func (b *breaker) transition(to string) {
	from := b.state
	b.state = to
	b.rs.addTransition(BreakerTransition{
		Endpoint:    b.endpoint,
		From:        from,
		To:          to,
		At:          time.Since(b.rs.start),
		FailureRate: b.failureRateLocked(),
	})
}

func (b *breaker) failureRateLocked() float64 {
	if b.filled == 0 {
		return 0
	}
	return float64(b.failures) / float64(b.filled)
}

func (b *breaker) resetWindowLocked() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.filled, b.failures = 0, 0, 0
}

// allow reports whether an attempt may proceed. When it returns false
// the attempt is shed with ErrCircuitOpen and wait is how long until
// the breaker would admit a probe.
func (b *breaker) allow() (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		remaining := b.cooldown - time.Since(b.openedAt)
		if remaining > 0 {
			return false, remaining
		}
		b.transition(BreakerHalfOpen)
		b.probes = 1
		return true, 0
	case BreakerHalfOpen:
		if b.probes < b.opts.HalfOpenProbes {
			b.probes++
			return true, 0
		}
		return false, b.cooldown
	}
	return true, 0
}

// record feeds one attempt outcome back. Aborted attempts release a
// half-open probe slot without influencing the state machine.
func (b *breaker) record(out attemptOutcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		switch out {
		case outcomeSuccess:
			b.resetWindowLocked()
			b.transition(BreakerClosed)
		case outcomeFailure:
			b.openedAt = time.Now()
			b.transition(BreakerOpen)
		}
	case BreakerClosed:
		if out == outcomeAborted {
			return
		}
		fail := out == outcomeFailure
		if b.filled == len(b.window) {
			if b.window[b.idx] {
				b.failures--
			}
		} else {
			b.filled++
		}
		b.window[b.idx] = fail
		if fail {
			b.failures++
		}
		b.idx = (b.idx + 1) % len(b.window)
		if b.filled >= b.opts.MinSamples && b.failureRateLocked() >= b.opts.FailureThreshold {
			b.openedAt = time.Now()
			b.transition(BreakerOpen)
		}
	case BreakerOpen:
		// A straggler attempt that started before the breaker opened;
		// its outcome carries no new information.
	}
}

// State returns the breaker's current state name (test hook).
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// resilience is the run-scoped state of the resilience layer: one
// breaker per endpoint plus the transition log. A fresh one is created
// per Run so breaker history never bleeds between runs and transition
// offsets are relative to this run's start.
type resilience struct {
	m     *Manager
	start time.Time
	// batch is the run's batching dispatcher; nil when Options.Batching
	// is disabled, keeping the single-task invocation path untouched.
	batch *batcher
	// health is the run's health plane; nil when Options.Health is
	// unset, keeping the attempt path untouched.
	health *healthState
	// post is the run's transport for one attempt, picked once at run
	// start: the single-task POST (Manager.invokeOnce) unless batching is
	// on, then the batcher's enrol-and-wait.
	post func(ctx context.Context, p *invocationPlan, id int32, sc obs.SpanContext) (_ *wfbench.Response, retriable bool, retryAfter time.Duration, _ error)

	mu          sync.Mutex
	breakers    map[string]*breaker
	transitions []BreakerTransition
}

func (m *Manager) newResilience(start time.Time) *resilience {
	return &resilience{m: m, start: start, post: m.invokeOnce, breakers: make(map[string]*breaker)}
}

// breakerFor returns the endpoint's breaker, or nil when breakers are
// disabled.
func (rs *resilience) breakerFor(endpoint string) *breaker {
	if !rs.m.opts.Breaker.Enabled {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	br := rs.breakers[endpoint]
	if br == nil {
		opts := rs.m.opts.Breaker.withDefaults()
		br = newBreaker(endpoint, opts, rs.m.scaled(opts.Cooldown), rs)
		rs.breakers[endpoint] = br
	}
	return br
}

func (rs *resilience) addTransition(t BreakerTransition) {
	// Called with the breaker's own lock held; rs.mu only guards the
	// shared slice and map, so the order is always breaker.mu → rs.mu.
	rs.mu.Lock()
	rs.transitions = append(rs.transitions, t)
	rs.mu.Unlock()
	rs.m.opts.Monitor.breakerChanged(t.From, t.To)
	rs.health.event("breaker", "", t.Endpoint, 0, t.From+"->"+t.To)
	if l := rs.m.opts.Logger; l != nil {
		l.Warn("circuit breaker transition", "endpoint", t.Endpoint,
			"from", t.From, "to", t.To, "failure_rate", t.FailureRate)
	}
}

// take returns the accumulated transitions (called once, at run end).
func (rs *resilience) take() []BreakerTransition {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := rs.transitions
	rs.transitions = nil
	return out
}

// retryDelay computes the scaled sleep before retry attempt number
// attempt (0-based): full-jitter exponential backoff — uniform in
// [0, min(cap, base·2^attempt)] — unless the server supplied an
// explicit Retry-After, which is honoured directly (still capped).
func (m *Manager) retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	return BackoffDelay(attempt, m.scaled(m.opts.RetryBackoff), m.backoffCap(), retryAfter)
}

// BackoffDelay is the backoff schedule the resilience layer sleeps on
// between attempts, exported so HTTP clients of this repo's services
// (wfmd submission, 429 + Retry-After) can reuse the exact policy:
// full-jitter exponential backoff — uniform in
// [0, min(ceiling, base·2^attempt)] — unless retryAfter is positive, in
// which case the server's hint is honoured directly (still capped by
// ceiling). A non-positive base disables the schedule (returns 0)
// except when retryAfter is given.
func BackoffDelay(attempt int, base, ceiling, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if ceiling > 0 && retryAfter > ceiling {
			return ceiling
		}
		return retryAfter
	}
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if ceiling > 0 && d >= ceiling {
			d = ceiling
			break
		}
	}
	if ceiling > 0 && d > ceiling {
		d = ceiling
	}
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(d) + 1))
}

// backoffCap is the scaled ceiling on any single retry delay.
func (m *Manager) backoffCap() time.Duration {
	max := m.opts.RetryBackoffMax
	if max <= 0 {
		max = 30 // nominal seconds
	}
	return m.scaled(max)
}

// ParseRetryAfter reads a Retry-After header value as (possibly
// fractional) seconds. HTTP-date forms and garbage return 0, leaving
// the backoff schedule in charge.
func ParseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}
