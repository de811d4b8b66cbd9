// Package health is the run-health plane layered on the observability
// substrate: streaming per-endpoint latency baselines (constant-memory
// P² quantiles), live straggler detection against each endpoint's
// running median, a crash flight recorder, and cross-run regression
// diffing over span logs. The workflow manager threads a Tracker
// through both scheduling modes when Options.Health is set; everything
// here is inert (and allocation-free on the manager's hot path) when it
// is not.
package health

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wfserverless/internal/metrics"
)

// TrackerConfig tunes straggler detection. All durations are wall time
// — the manager scales its nominal-second options before building one.
type TrackerConfig struct {
	// StragglerFactor is k in the flagging criterion: an in-flight
	// attempt is a straggler once its age exceeds k × the endpoint's
	// running median attempt latency. Zero defaults to 3.
	StragglerFactor float64
	// MinSamples is how many completed attempts an endpoint needs
	// before its median is trusted for flagging. Zero defaults to 8.
	MinSamples int
	// MinAge is an absolute floor on the age before anything is
	// flagged, so microsecond medians cannot flag scheduling jitter.
	MinAge time.Duration
	// CheckInterval is the watchdog scan period. Zero defaults to 25ms.
	CheckInterval time.Duration
	// OnStraggler, if set, is called (outside the tracker's locks) once
	// per flagged attempt.
	OnStraggler func(Straggler)
	// OnResolved, if set, is called when a flagged attempt finally
	// completes, with the same event plus the final latency.
	OnResolved func(Straggler, time.Duration)
}

// Straggler describes one flagged in-flight attempt.
type Straggler struct {
	Task     string
	Endpoint string
	// Age is the attempt's in-flight age at flag time; Median the
	// endpoint's running median it was judged against.
	Age    time.Duration
	Median time.Duration
}

// EndpointStats is one endpoint's streaming baseline, snapshotted for
// Result reports and the /metrics exposition.
type EndpointStats struct {
	Endpoint string
	// Attempts counts completed invocation attempts (including failed
	// ones); Failures the subset that errored; Retries the attempts
	// beyond each task's first.
	Attempts int64
	Failures int64
	Retries  int64
	// ColdStarts counts attempts whose response reported a cold start.
	ColdStarts int64
	// Stragglers counts attempts flagged by the watchdog;
	// SpeculativeWins the flagged tasks whose backup attempt finished
	// first.
	Stragglers      int64
	SpeculativeWins int64
	// BatchFlushes and BatchTasks describe batching occupancy: tasks
	// per flushed batch = BatchTasks / BatchFlushes.
	BatchFlushes int64
	BatchTasks   int64
	// P50/P95/P99 are the streaming attempt-latency quantiles in
	// seconds.
	P50, P95, P99 float64
}

// RetryRate is the fraction of attempts beyond each task's first.
func (e *EndpointStats) RetryRate() float64 { return rate(e.Retries, e.Attempts) }

// ColdStartRate is the fraction of attempts served by a cold pod.
func (e *EndpointStats) ColdStartRate() float64 { return rate(e.ColdStarts, e.Attempts) }

// FailureRate is the fraction of attempts that errored.
func (e *EndpointStats) FailureRate() float64 { return rate(e.Failures, e.Attempts) }

// BatchOccupancy is the mean tasks per flushed batch (0 when the run
// never batched).
func (e *EndpointStats) BatchOccupancy() float64 { return rate(e.BatchTasks, e.BatchFlushes) }

func rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// endpoint is the live, mutex-guarded state behind one EndpointStats.
type endpoint struct {
	name string

	mu         sync.Mutex
	attempts   int64
	failures   int64
	retries    int64
	coldStarts int64
	stragglers int64
	specWins   int64
	flushes    int64
	batchTasks int64
	p50        metrics.P2Quantile
	p95        metrics.P2Quantile
	p99        metrics.P2Quantile
}

// Inflight is the registration handle for one invocation attempt. The
// manager selects on Flagged() next to the attempt's own completion;
// the channel closes at most once, when the watchdog flags the attempt.
type Inflight struct {
	t        *Tracker
	ep       *endpoint
	task     string
	attempt  int
	start    time.Time
	flagged  chan struct{}
	isFlag   bool // owned by the watchdog under t.mu until Done
	flagInfo Straggler
	done     atomic.Bool
}

// Flagged returns the channel closed when the watchdog marks this
// attempt a straggler.
func (h *Inflight) Flagged() <-chan struct{} { return h.flagged }

// Done deregisters the attempt and folds its outcome into the
// endpoint's baseline. Exactly one call per StartAttempt; coldStart
// reports whether the response carried a cold-start marker.
func (h *Inflight) Done(failed, coldStart bool) {
	if h == nil || !h.done.CompareAndSwap(false, true) {
		return
	}
	lat := time.Since(h.start)
	t := h.t
	t.mu.Lock()
	delete(t.inflight, h)
	wasFlagged := h.isFlag
	info := h.flagInfo
	t.mu.Unlock()

	ep := h.ep
	ep.mu.Lock()
	ep.attempts++
	if failed {
		ep.failures++
	}
	if coldStart {
		ep.coldStarts++
	}
	if h.attempt > 0 {
		ep.retries++
	}
	secs := lat.Seconds()
	ep.p50.Observe(secs)
	ep.p95.Observe(secs)
	ep.p99.Observe(secs)
	ep.mu.Unlock()

	if wasFlagged && t.cfg.OnResolved != nil {
		t.cfg.OnResolved(info, lat)
	}
}

// SpeculativeWin records that this flagged attempt's backup finished
// first; for the per-endpoint speculation accounting.
func (h *Inflight) SpeculativeWin() {
	if h == nil {
		return
	}
	h.ep.mu.Lock()
	h.ep.specWins++
	h.ep.mu.Unlock()
	h.t.specWins.Add(1)
}

// Tracker is one run's health state: the per-endpoint baseline table,
// the in-flight attempt registry, and the straggler watchdog goroutine.
// Construct with NewTracker, stop with Close. All methods are safe for
// concurrent use; Start/Done are the hot-path pair and cost two small
// mutex holds each.
type Tracker struct {
	cfg TrackerConfig

	mu       sync.Mutex
	eps      map[string]*endpoint
	inflight map[*Inflight]struct{}

	specLaunched atomic.Int64
	specWins     atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewTracker starts a tracker and its watchdog.
func NewTracker(cfg TrackerConfig) *Tracker {
	if cfg.StragglerFactor <= 0 {
		cfg.StragglerFactor = 3
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 8
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 25 * time.Millisecond
	}
	t := &Tracker{
		cfg:      cfg,
		eps:      make(map[string]*endpoint),
		inflight: make(map[*Inflight]struct{}),
		stop:     make(chan struct{}),
	}
	t.wg.Add(1)
	go t.watchdog()
	return t
}

// Close stops the watchdog. Idempotent is not required — the manager
// closes exactly once at run end.
func (t *Tracker) Close() {
	close(t.stop)
	t.wg.Wait()
}

func (t *Tracker) endpointFor(name string) *endpoint {
	t.mu.Lock()
	ep := t.eps[name]
	if ep == nil {
		ep = &endpoint{name: name}
		ep.p50.Init(0.50)
		ep.p95.Init(0.95)
		ep.p99.Init(0.99)
		t.eps[name] = ep
	}
	t.mu.Unlock()
	return ep
}

// StartAttempt registers one invocation attempt (0-based attempt number
// within its task) as in flight.
func (t *Tracker) StartAttempt(task, endpointName string, attempt int) *Inflight {
	h := &Inflight{
		t:       t,
		ep:      t.endpointFor(endpointName),
		task:    task,
		attempt: attempt,
		start:   time.Now(),
		flagged: make(chan struct{}),
	}
	t.mu.Lock()
	t.inflight[h] = struct{}{}
	t.mu.Unlock()
	return h
}

// SpeculationLaunched accounts one backup attempt dispatched for a
// flagged task.
func (t *Tracker) SpeculationLaunched() { t.specLaunched.Add(1) }

// RecordBatch accounts one flushed batch bound for the endpoint.
func (t *Tracker) RecordBatch(endpointName string, tasks int) {
	ep := t.endpointFor(endpointName)
	ep.mu.Lock()
	ep.flushes++
	ep.batchTasks += int64(tasks)
	ep.mu.Unlock()
}

// Speculations returns (launched, wins) for speculative retries.
func (t *Tracker) Speculations() (launched, wins int64) {
	return t.specLaunched.Load(), t.specWins.Load()
}

// watchdog periodically scans the in-flight registry and flags attempts
// older than max(MinAge, k × endpoint median). Flag callbacks run
// outside both locks.
func (t *Tracker) watchdog() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.cfg.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			t.scan()
		}
	}
}

func (t *Tracker) scan() {
	now := time.Now()
	var fired []Straggler
	t.mu.Lock()
	for h := range t.inflight {
		if h.isFlag {
			continue
		}
		ep := h.ep
		ep.mu.Lock()
		var median time.Duration
		if ep.p50.Count() >= int64(t.cfg.MinSamples) {
			median = time.Duration(ep.p50.Value() * float64(time.Second))
		}
		ep.mu.Unlock()
		if median <= 0 {
			continue
		}
		age := now.Sub(h.start)
		threshold := time.Duration(float64(median) * t.cfg.StragglerFactor)
		if threshold < t.cfg.MinAge {
			threshold = t.cfg.MinAge
		}
		if age <= threshold {
			continue
		}
		h.isFlag = true
		h.flagInfo = Straggler{Task: h.task, Endpoint: ep.name, Age: age, Median: median}
		close(h.flagged)
		ep.mu.Lock()
		ep.stragglers++
		ep.mu.Unlock()
		fired = append(fired, h.flagInfo)
	}
	t.mu.Unlock()
	if t.cfg.OnStraggler != nil {
		for _, s := range fired {
			t.cfg.OnStraggler(s)
		}
	}
}

// Snapshot renders the endpoint table, sorted by endpoint name.
func (t *Tracker) Snapshot() []EndpointStats {
	t.mu.Lock()
	eps := make([]*endpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	out := make([]EndpointStats, 0, len(eps))
	for _, ep := range eps {
		ep.mu.Lock()
		out = append(out, EndpointStats{
			Endpoint:        ep.name,
			Attempts:        ep.attempts,
			Failures:        ep.failures,
			Retries:         ep.retries,
			ColdStarts:      ep.coldStarts,
			Stragglers:      ep.stragglers,
			SpeculativeWins: ep.specWins,
			BatchFlushes:    ep.flushes,
			BatchTasks:      ep.batchTasks,
			P50:             ep.p50.Value(),
			P95:             ep.p95.Value(),
			P99:             ep.p99.Value(),
		})
		ep.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// WriteMetrics writes the per-endpoint baselines as labeled Prometheus
// series. The run-global straggler/speculation counters are the
// Monitor's (which shares exposition pages with this table and outlives
// individual runs); the tracker owns only the per-endpoint families.
// Safe on a nil tracker (writes nothing).
func (t *Tracker) WriteMetrics(w io.Writer) error {
	if t == nil {
		return nil
	}
	stats := t.Snapshot()
	x := metrics.NewWriter(w)
	series := []struct {
		name, typ, help string
		val             func(*EndpointStats) float64
	}{
		{"wfm_endpoint_attempts_total", "counter", "Completed invocation attempts per endpoint.",
			func(e *EndpointStats) float64 { return float64(e.Attempts) }},
		{"wfm_endpoint_failures_total", "counter", "Failed invocation attempts per endpoint.",
			func(e *EndpointStats) float64 { return float64(e.Failures) }},
		{"wfm_endpoint_retry_rate", "gauge", "Fraction of attempts beyond each task's first.",
			func(e *EndpointStats) float64 { return e.RetryRate() }},
		{"wfm_endpoint_cold_start_rate", "gauge", "Fraction of attempts served by a cold pod.",
			func(e *EndpointStats) float64 { return e.ColdStartRate() }},
		{"wfm_endpoint_batch_occupancy", "gauge", "Mean tasks per flushed batch.",
			func(e *EndpointStats) float64 { return e.BatchOccupancy() }},
		{"wfm_endpoint_latency_p50_seconds", "gauge", "Streaming median attempt latency.",
			func(e *EndpointStats) float64 { return e.P50 }},
		{"wfm_endpoint_latency_p95_seconds", "gauge", "Streaming p95 attempt latency.",
			func(e *EndpointStats) float64 { return e.P95 }},
		{"wfm_endpoint_latency_p99_seconds", "gauge", "Streaming p99 attempt latency.",
			func(e *EndpointStats) float64 { return e.P99 }},
	}
	for _, s := range series {
		x.Family(s.name, s.typ, s.help)
		for i := range stats {
			x.Sample(s.name, s.val(&stats[i]), "endpoint", stats[i].Endpoint)
		}
	}
	return x.Err()
}
