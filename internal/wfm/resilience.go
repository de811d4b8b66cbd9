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
}

// halfOpenProbes is how many trial attempts a half-open breaker admits at once.
const halfOpenProbes = 1

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
	return o
}

func (b *BreakerOptions) validate() error {
	if !b.Enabled {
		return nil
	}
	if b.FailureThreshold < 0 || b.FailureThreshold > 1 {
		return fmt.Errorf("wfm: breaker FailureThreshold %v outside [0,1]", b.FailureThreshold)
	}
	if b.Window < 0 || b.MinSamples < 0 {
		return errors.New("wfm: negative breaker window/samples")
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
		if b.probes < halfOpenProbes {
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

// outcome is what one attempt produced, whichever layers it crossed:
// the response (nil unless the endpoint answered 200), whether a failure
// is worth retrying, the server's or the breaker's hint for when, and
// the error.
type outcome struct {
	resp       *wfbench.Response
	retriable  bool
	shed       bool // the open breaker refused the attempt
	retryAfter time.Duration
	err        error
}

// attempt names one invocation attempt to the layers of the attempt
// path: task id of plan p, the 0-based attempt number, the attempt's
// span and the task's span (both nil when the run is unsampled).
type attempt struct {
	p          *invocationPlan
	id         int32
	n          int
	span, task *obs.Span
}

// postFunc performs one attempt under ctx, the task's deadline context.
// A transport is a postFunc; a layer takes one and returns one.
type postFunc func(ctx context.Context, a attempt) outcome

// resilience is the run-scoped state of the attempt path: the composed
// chain invoke's retry loop calls, one breaker per endpoint, and the
// transition log. A fresh one is created per Run so breaker history
// never bleeds between runs and transition offsets are relative to this
// run's start.
type resilience struct {
	m     *Manager
	start time.Time
	// post is one attempt through every enabled layer.
	post postFunc
	// close releases the transport at run end (the batcher's leftovers).
	close func()
	// st is where breaker transitions and retries are emitted.
	st *runState
	// Where the run's decoded Responses live: slots of a slab, pod names
	// allocated once each.
	responses responseSlab
	pods      wfbench.Strings

	mu          sync.Mutex
	breakers    map[string]*breaker
	transitions []BreakerTransition
}

// newResilience composes the run's attempt path, innermost layer first:
// the transport — one POST per task, or the batcher's enrol-and-wait —
// then the health plane's straggler watch when Options.Health is set,
// then the circuit breaker when it is enabled. This is the only place a
// layer is chosen; a layer that is off is not in the chain. ctx is the
// run context: batch POSTs ride it, so a task abandoning its wait never
// aborts its batch-mates' request, and classify reads cancellation off it.
func (m *Manager) newResilience(ctx context.Context, p *invocationPlan, start time.Time, st *runState) *resilience {
	rs := &resilience{m: m, start: start, st: st, breakers: make(map[string]*breaker)}
	rs.post, rs.close = rs.invokeOnce, func() {}
	if m.opts.Batching.Enabled {
		b := m.newBatcher(ctx, p, rs)
		rs.post, rs.close = b.invokeOnce, b.close
	}
	if st.health != nil {
		rs.post = st.health.watch(rs.post)
	}
	if m.opts.Breaker.Enabled {
		rs.post = rs.guard(ctx, rs.post)
	}
	return rs
}

// responseSlab hands out the Response slots single-task answers are
// decoded into, from blocks of 64; the Result keeps the blocks alive
// through the TaskResults that point into them. (A batch decodes into a
// block of its own.)
type responseSlab struct {
	mu   sync.Mutex
	free []wfbench.Response
}

func (s *responseSlab) next() *wfbench.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) == 0 {
		s.free = make([]wfbench.Response, 64)
	}
	slot := &s.free[0]
	s.free = s.free[1:]
	return slot
}

// guard is the circuit-breaker layer: an attempt against an endpoint
// whose breaker is open is shed with ErrCircuitOpen — retriable, with
// the time until the breaker would admit a probe as the hint — and every
// attempt that does go through reports back as success, failure or
// aborted (classify).
func (rs *resilience) guard(ctx context.Context, next postFunc) postFunc {
	return func(tctx context.Context, a attempt) outcome {
		task := a.p.tasks[a.id]
		br := rs.breakerFor(task.Command.APIURL)
		ok, wait := br.allow()
		if !ok {
			a.span.SetAttr("breaker", BreakerOpen)
			return outcome{retriable: true, shed: true, retryAfter: wait,
				err: fmt.Errorf("wfm: %s: %s: %w", task.Name, task.Command.APIURL, ErrCircuitOpen)}
		}
		out := next(tctx, a)
		br.record(classify(ctx, tctx, out))
		return out
	}
}

// classify maps one attempt's result onto a breaker outcome: only
// endpoint-side trouble (transport errors, 5xx, 429, a stall past the
// task deadline) counts against the endpoint's health; client-side
// rejections and function-level errors prove the endpoint is serving.
func classify(ctx, tctx context.Context, out outcome) attemptOutcome {
	if out.err == nil {
		return outcomeSuccess
	}
	if ctx.Err() != nil {
		return outcomeAborted
	}
	if out.retriable || tctx.Err() != nil {
		return outcomeFailure
	}
	return outcomeSuccess
}

// breakerFor returns the endpoint's breaker, created on first use.
func (rs *resilience) breakerFor(endpoint string) *breaker {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	br := rs.breakers[endpoint]
	if br == nil {
		opts := rs.m.opts.Breaker.withDefaults()
		br = &breaker{
			opts:     opts,
			cooldown: rs.m.scaled(opts.Cooldown),
			endpoint: endpoint,
			rs:       rs,
			state:    BreakerClosed,
			window:   make([]bool, opts.Window),
		}
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
	rs.st.emit(transition{kind: tBreaker, id: -1, bt: &t})
}

// take returns the accumulated transitions (called at run end).
func (rs *resilience) take() []BreakerTransition {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.transitions
}

// retryDelay computes the scaled sleep before retry attempt number
// attempt (0-based): full-jitter exponential backoff — uniform in
// [0, min(cap, base·2^attempt)] — unless the server supplied an
// explicit Retry-After, which is honoured directly (still capped).
func (m *Manager) retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	ceiling := m.opts.RetryBackoffMax
	if ceiling <= 0 {
		ceiling = 30 // nominal seconds
	}
	return BackoffDelay(attempt, m.scaled(m.opts.RetryBackoff), m.scaled(ceiling), retryAfter)
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
