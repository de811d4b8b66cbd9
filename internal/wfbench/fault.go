package wfbench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultProfile configures the Injector: how often and how a wrapped
// executor misbehaves. All rates are probabilities in [0, 1], drawn
// independently per invocation; a hang wins over a reject, a reject over
// an error, and a delay applies only to an invocation that is served. A
// zero profile injects nothing.
type FaultProfile struct {
	// ErrorRate is the probability of answering 500 without executing.
	ErrorRate float64
	// RejectRate is the probability of answering 429 Too Many Requests
	// with a Retry-After hint, modelling platform overload.
	RejectRate float64
	// RetryAfter is the hint (in seconds) sent with injected 429s.
	// Zero omits it.
	RetryAfter float64
	// LatencyRate is the probability of delaying an invocation before it
	// reaches the wrapped executor.
	LatencyRate float64
	// Latency is the base injected delay; LatencyJitter adds a uniform
	// random extra on top.
	Latency       time.Duration
	LatencyJitter time.Duration
	// LatencyAfter suppresses latency injection for the first N
	// invocations (single POSTs and batch frames both count). A
	// straggler campaign uses it to let fast siblings establish the
	// endpoint's latency baseline before the tail appears.
	LatencyAfter int
	// LatencyOnce delays each distinct task name at most once, so a
	// retry or speculative backup of a delayed task lands on the fast
	// path — the bad-placement straggler model rather than a slow task.
	LatencyOnce bool
	// HangRate is the probability of never answering: the injector
	// holds the invocation until the caller gives up (its context is
	// done) or MaxHang elapses, whichever is first. This is the
	// stalled-pod failure mode per-task timeouts exist for.
	HangRate float64
	// MaxHang bounds a hang so a profile cannot wedge the server
	// forever. Zero means 30s.
	MaxHang time.Duration
	// Seed keys every draw: the same seed (zero included) deals a
	// task's k-th invocation the same fate whatever order invocations
	// arrive in.
	Seed int64
}

// Active reports whether the profile injects any fault at all.
func (p FaultProfile) Active() bool {
	return p.ErrorRate > 0 || p.RejectRate > 0 || p.LatencyRate > 0 || p.HangRate > 0
}

func (p FaultProfile) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"ErrorRate", p.ErrorRate},
		{"RejectRate", p.RejectRate},
		{"LatencyRate", p.LatencyRate},
		{"HangRate", p.HangRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("wfbench: fault %s = %v, want [0, 1]", r.name, r.v)
		}
	}
	if p.RetryAfter < 0 {
		return fmt.Errorf("wfbench: fault RetryAfter = %v, want >= 0", p.RetryAfter)
	}
	if p.Latency < 0 || p.LatencyJitter < 0 || p.MaxHang < 0 {
		return fmt.Errorf("wfbench: fault durations must be >= 0")
	}
	if p.LatencyAfter < 0 {
		return fmt.Errorf("wfbench: fault LatencyAfter = %d, want >= 0", p.LatencyAfter)
	}
	return nil
}

// FaultStats counts what an Injector actually did.
type FaultStats struct {
	Errors  int64 // injected 500s
	Rejects int64 // injected 429s
	Hangs   int64 // invocations held until caller abandon or MaxHang
	Delays  int64 // latency injections (invocation still served)
	Passed  int64 // invocations forwarded to the wrapped executor
}

// Injector is an Executor that wraps another with a failure profile —
// the chaos side of the testbed, driving the workflow manager's retry,
// timeout and circuit-breaker paths without real infrastructure faults.
// It injects rate-based error, overload, latency and hang faults at the
// platform's edge.
// Served through an Endpoint, a single-task POST and every frame of a
// batch reach it as one Invoke, so a fault can hit one task inside a
// batch while its batch-mates execute; a hung frame holds its whole
// batch response, honest head-of-line blocking on a batched connection.
//
// A fault is a pure function of (Seed, task name, how many times that
// name has arrived): which host thread gets there first decides nothing.
type Injector struct {
	next    Executor
	profile FaultProfile

	arrivals atomic.Int64 // invocations so far, for LatencyAfter

	mu           sync.Mutex
	names        map[string]*nameFaults
	delayedNames []string

	errors  atomic.Int64
	rejects atomic.Int64
	hangs   atomic.Int64
	delays  atomic.Int64
	passed  atomic.Int64
}

// nameFaults is what the injector remembers of one task name.
type nameFaults struct {
	name     string // the map's own copy of the name
	arrivals uint64 // invocations of the name so far
	delayed  bool   // one of them was delayed
}

// NewInjector wraps next with the given fault profile.
func NewInjector(next Executor, p FaultProfile) (*Injector, error) {
	if next == nil {
		return nil, fmt.Errorf("wfbench: injector needs an executor to wrap")
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Injector{next: next, profile: p, names: map[string]*nameFaults{}}, nil
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() FaultStats {
	return FaultStats{
		Errors:  in.errors.Load(),
		Rejects: in.rejects.Load(),
		Hangs:   in.hangs.Load(),
		Delays:  in.delays.Load(),
		Passed:  in.passed.Load(),
	}
}

// DelayedNames returns the distinct task names that actually received
// an injected delay, in first-delay order — the ground truth a
// straggler campaign checks its flagged set against.
func (in *Injector) DelayedNames() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.delayedNames...)
}

// The draws of one invocation, in their fixed order.
const (
	drawHang = iota
	drawDelay
	drawReject
	drawFail
	drawJitter
)

// splitmix64 is the finaliser of the SplitMix64 generator: a bijection
// that scatters neighbouring inputs across the whole 64-bit range.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a hashes a task name (64-bit FNV-1a).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// faults is one invocation's fate.
type faults struct {
	hang, delay, reject, fail bool
	extra                     time.Duration
}

// draw deals the k-th arrival (0-based) of name its fate, before the
// latency gates: draw i is splitmix64(seed ^ fnv1a(name) ^ splitmix64(k) + i).
func (in *Injector) draw(name string, k uint64) faults {
	key := uint64(in.profile.Seed) ^ fnv1a(name) ^ splitmix64(k)
	hit := func(i uint64, rate float64) bool {
		return rate > 0 && float64(splitmix64(key+i)>>11)/(1<<53) < rate
	}
	p := &in.profile
	f := faults{
		hang:   hit(drawHang, p.HangRate),
		delay:  hit(drawDelay, p.LatencyRate),
		reject: hit(drawReject, p.RejectRate),
		fail:   hit(drawFail, p.ErrorRate),
	}
	if f.delay && p.LatencyJitter > 0 {
		f.extra = time.Duration(splitmix64(key+drawJitter) % uint64(p.LatencyJitter+1))
	}
	return f
}

// deal counts an arrival of name and returns its fate, with delay
// cleared unless the invocation is served, the LatencyAfter gate is
// open and LatencyOnce lets it through. A delay is recorded for
// DelayedNames under the same lock.
func (in *Injector) deal(name string, open bool) faults {
	in.mu.Lock()
	defer in.mu.Unlock()
	nf := in.names[name]
	if nf == nil {
		// A batch's names are cuts of its whole body: the map keeps a
		// copy, and is never assigned to again, which would store the cut.
		nf = &nameFaults{name: strings.Clone(name)}
		in.names[nf.name] = nf
	}
	f := in.draw(name, nf.arrivals)
	nf.arrivals++
	f.delay = f.delay && open && !f.hang && !f.reject && !f.fail && !(in.profile.LatencyOnce && nf.delayed)
	if f.delay && !nf.delayed {
		nf.delayed = true
		in.delayedNames = append(in.delayedNames, nf.name)
	}
	return f
}

// Invoke implements Executor: deal the invocation its fate, then answer
// it with the injected fault or forward it, perhaps late, to next.
func (in *Injector) Invoke(ctx context.Context, route string, req *Request) (*Response, error) {
	p := &in.profile
	f := in.deal(req.Name, p.LatencyAfter == 0 || in.arrivals.Add(1) > int64(p.LatencyAfter))
	switch {
	case f.hang:
		in.hangs.Add(1)
		maxHang := p.MaxHang
		if maxHang <= 0 {
			maxHang = 30 * time.Second
		}
		t := time.NewTimer(maxHang)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		// Whoever is still listening gets a late 500 — a stalled pod
		// that eventually got reaped.
		return nil, injected(http.StatusInternalServerError, 0, "wfbench: injected hang expired")
	case f.reject:
		in.rejects.Add(1)
		return nil, injected(http.StatusTooManyRequests, time.Duration(p.RetryAfter*float64(time.Second)), "wfbench: injected overload")
	case f.fail:
		in.errors.Add(1)
		return nil, injected(http.StatusInternalServerError, 0, "wfbench: injected fault")
	case f.delay:
		in.delays.Add(1)
		t := time.NewTimer(p.Latency + f.extra)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	in.passed.Add(1)
	return in.next.Invoke(ctx, route, req)
}

func injected(status int, retryAfter time.Duration, msg string) error {
	return &StatusError{Status: status, RetryAfter: retryAfter, Err: errors.New(msg)}
}
