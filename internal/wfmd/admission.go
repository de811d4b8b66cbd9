// Admission and fair-share dispatch for the workflow service.
//
// Two resources are arbitrated across tenants:
//
//   - Run slots. Each tenant may have at most MaxConcurrentRuns runs
//     executing; admitted-but-not-started runs wait in per-tenant
//     priority queues. A bounded global admission queue caps how much
//     waiting work the service will hold at all — overflow is the
//     honest-backpressure signal (429 + Retry-After at the HTTP layer).
//
//   - Task slots. Every running Manager carries a TaskGate pointing
//     back here, so all concurrent runs draw invocations from one
//     global budget of TaskSlots. Grants use weighted fair queuing
//     over per-tenant virtual time: each grant charges the tenant
//     1/weight, and the next grant goes to the eligible tenant with
//     the smallest virtual time — so under saturation tenants' task
//     throughputs converge to the ratio of their weights, regardless
//     of how many runs or how wide a DAG each submits.
//
// Priority classes order work *within* a tenant (a tenant's high
// queue drains before its normal, normal before low — for both run
// starts and task grants); they deliberately do not let one tenant
// starve another, which is the fair-share layer's job.
package wfmd

import (
	"context"
	"errors"
	"sort"
	"sync"
)

// ErrQueueFull is returned by Submit when the service's admission
// queue is at capacity. The HTTP layer maps it to 429 + Retry-After —
// the signal wfm's resilience layer already consumes.
var ErrQueueFull = errors.New("wfmd: admission queue full")

// Priority classes for submitted runs.
type Priority int

const (
	PriorityLow Priority = iota
	PriorityNormal
	PriorityHigh
	numPriorities = 3
)

func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	}
	return "normal"
}

// ParsePriority maps the wire form ("high", "normal", "low"; empty
// means normal) to a Priority.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return PriorityNormal, errors.New("wfmd: unknown priority " + s)
}

// TenantConfig is one tenant's share and quota configuration.
type TenantConfig struct {
	// Name identifies the tenant; submissions carry it as the tenant
	// query parameter or X-Tenant header.
	Name string
	// Weight is the tenant's fair-share weight; task grants under
	// contention converge to the ratio of weights. Zero or negative
	// defaults to 1.
	Weight float64
	// MaxConcurrentRuns caps the tenant's simultaneously executing
	// runs; zero defaults to 4. Excess admitted runs queue.
	MaxConcurrentRuns int
	// MaxInFlightTasks caps the tenant's concurrently dispatched task
	// invocations across all of its runs. Zero means no per-tenant cap
	// (the global TaskSlots budget still binds).
	MaxInFlightTasks int
}

func (tc TenantConfig) withDefaults(name string) TenantConfig {
	tc.Name = name
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	if tc.MaxConcurrentRuns <= 0 {
		tc.MaxConcurrentRuns = 4
	}
	return tc
}

// TenantStats is one tenant's admission-plane counters, for /metrics
// and for the experiment gates.
type TenantStats struct {
	Tenant       string
	Weight       float64
	RunsAccepted int64
	RunsRejected int64
	RunsQueued   int
	RunsRunning  int
	// RunHighwater is the maximum number of simultaneously running
	// runs ever observed — the quota-never-exceeded gate checks it
	// against MaxConcurrentRuns.
	RunHighwater  int
	RunQuota      int
	TasksInflight int
	TaskHighwater int
	// TasksDispatched counts task-slot grants. ContestedGrants counts
	// the subset made while at least one other tenant also had waiting
	// tasks — the denominator of the fair-share ratio gate, because
	// weights only bind under contention.
	TasksDispatched int64
	ContestedGrants int64
}

// taskWaiter is one blocked TaskGate.Acquire.
type taskWaiter struct {
	ch        chan struct{}
	granted   bool
	cancelled bool
}

// taskWaiters recycles waiters, one of which every task invocation of
// every run would otherwise allocate, with its channel. Only a waiter
// whose grant was received goes back: the grant popped it, so no queue
// refers to it, and its channel is empty. A cancelled waiter may still
// sit in its tenant's queue until a pop skips it; it is never reused.
var taskWaiters = sync.Pool{New: func() any { return &taskWaiter{ch: make(chan struct{}, 1)} }}

// tenantState is the dispatcher's per-tenant book-keeping. All fields
// are guarded by dispatcher.mu.
type tenantState struct {
	cfg TenantConfig

	accepted  int64
	rejected  int64
	queued    [numPriorities][]*run // run queues, FIFO within class
	queuedLen int
	running   int
	runHigh   int

	inflight   int
	taskHigh   int
	dispatched int64
	contested  int64
	vt         float64 // weighted fair-share virtual time
	waiters    [numPriorities][]*taskWaiter
	waiting    int // un-cancelled waiters across classes
}

func (t *tenantState) weight() float64 { return t.cfg.Weight }

// dispatcher owns admission state. It never blocks while holding mu;
// waiting happens on per-waiter channels outside the lock.
type dispatcher struct {
	mu sync.Mutex

	tenants  map[string]*tenantState
	names    []string // sorted tenant names, for stable iteration
	defaults TenantConfig

	queueCap      int // bound on total queued (admitted, not running) runs
	queuedRuns    int
	maxActiveRuns int
	activeRuns    int

	taskSlots int
	freeSlots int

	// launch starts an admitted run's executor; set by the Server. It
	// is invoked outside the lock.
	launch func(*run)
}

func newDispatcher(cfg Config) *dispatcher {
	d := &dispatcher{
		tenants:       make(map[string]*tenantState),
		defaults:      cfg.DefaultTenant,
		queueCap:      cfg.QueueCapacity,
		maxActiveRuns: cfg.MaxActiveRuns,
		taskSlots:     cfg.TaskSlots,
		freeSlots:     cfg.TaskSlots,
	}
	for _, tc := range cfg.Tenants {
		d.tenantLocked(tc.Name).cfg = tc.withDefaults(tc.Name)
	}
	return d
}

// tenantLocked returns (creating on first sight) the tenant's state.
// Unknown tenants get the default config — the service is open to new
// tenants, they just share the default quota class.
func (d *dispatcher) tenantLocked(name string) *tenantState {
	t := d.tenants[name]
	if t == nil {
		t = &tenantState{cfg: d.defaults.withDefaults(name)}
		d.tenants[name] = t
		d.names = append(d.names, name)
		sort.Strings(d.names)
	}
	return t
}

// reserve claims an admission-queue slot for a run about to be
// persisted, so disk work only happens for runs the service will
// actually hold. unreserve backs it out if persistence fails.
func (d *dispatcher) reserve(tenant string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tenantLocked(tenant)
	if d.queuedRuns >= d.queueCap {
		t.rejected++
		return ErrQueueFull
	}
	d.queuedRuns++
	t.queuedLen++
	t.accepted++
	return nil
}

func (d *dispatcher) unreserve(tenant string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tenantLocked(tenant)
	d.queuedRuns--
	t.queuedLen--
	t.accepted--
}

// enqueue places a reserved run into its tenant's priority queue and
// starts whatever the run quotas now allow.
func (d *dispatcher) enqueue(r *run) {
	d.mu.Lock()
	t := d.tenantLocked(r.tenant)
	t.queued[r.priority] = append(t.queued[r.priority], r)
	started := d.startRunsLocked()
	d.mu.Unlock()
	for _, s := range started {
		d.launch(s)
	}
}

// forceEnqueue admits a run regardless of queue capacity — used for
// resume-on-restart, which must never bounce a run the service already
// accepted in a previous life.
func (d *dispatcher) forceEnqueue(r *run) {
	d.mu.Lock()
	t := d.tenantLocked(r.tenant)
	d.queuedRuns++
	t.queuedLen++
	t.accepted++
	t.queued[r.priority] = append(t.queued[r.priority], r)
	started := d.startRunsLocked()
	d.mu.Unlock()
	for _, s := range started {
		d.launch(s)
	}
}

// runDone releases a finished run's slot and starts queued successors.
func (d *dispatcher) runDone(tenant string) {
	d.mu.Lock()
	t := d.tenantLocked(tenant)
	t.running--
	d.activeRuns--
	started := d.startRunsLocked()
	d.mu.Unlock()
	for _, s := range started {
		d.launch(s)
	}
}

// startRunsLocked pops queued runs while global and per-tenant run
// quotas allow, picking the eligible tenant with the least
// running/weight each time (run-level fair share mirrors the
// task-level rule on a coarser resource). Returns the runs to launch;
// the caller launches them outside the lock.
func (d *dispatcher) startRunsLocked() []*run {
	var started []*run
	for d.activeRuns < d.maxActiveRuns {
		var best *tenantState
		var bestShare float64
		for _, name := range d.names {
			t := d.tenants[name]
			if t.queuedLen == 0 || t.running >= t.cfg.MaxConcurrentRuns {
				continue
			}
			share := float64(t.running+1) / t.weight()
			if best == nil || share < bestShare {
				best, bestShare = t, share
			}
		}
		if best == nil {
			break
		}
		r := best.popRunLocked()
		if r == nil {
			break
		}
		d.queuedRuns--
		best.queuedLen--
		best.running++
		if best.running > best.runHigh {
			best.runHigh = best.running
		}
		d.activeRuns++
		started = append(started, r)
	}
	return started
}

func (t *tenantState) popRunLocked() *run {
	for p := numPriorities - 1; p >= 0; p-- {
		if q := t.queued[p]; len(q) > 0 {
			r := q[0]
			t.queued[p] = q[1:]
			return r
		}
	}
	return nil
}

// gate returns the TaskGate a run's Manager dispatches through.
func (d *dispatcher) gate(tenant string, prio Priority) *tenantGate {
	return &tenantGate{d: d, tenant: tenant, prio: prio}
}

// tenantGate adapts the dispatcher to wfm.TaskGate for one run.
type tenantGate struct {
	d      *dispatcher
	tenant string
	prio   Priority
}

func (g *tenantGate) Acquire(ctx context.Context) error {
	d := g.d
	w := taskWaiters.Get().(*taskWaiter)
	d.mu.Lock()
	t := d.tenantLocked(g.tenant)
	t.waiters[g.prio] = append(t.waiters[g.prio], w)
	if t.waiting == 0 && t.inflight == 0 {
		// Tenant (re)activates: advance its virtual time to the
		// slowest active tenant's so an idle period is not banked as
		// future burst credit (standard WFQ activation rule).
		if min, ok := d.minActiveVTLocked(t); ok && min > t.vt {
			t.vt = min
		}
	}
	t.waiting++
	d.grantLocked()
	d.mu.Unlock()

	select {
	case <-w.ch:
		w.granted = false
		taskWaiters.Put(w)
		return nil
	case <-ctx.Done():
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if w.granted {
		// The grant raced the cancellation; take it. The task will
		// observe the dead ctx immediately and Release.
		return nil
	}
	w.cancelled = true
	t.waiting--
	return ctx.Err()
}

func (g *tenantGate) Release() {
	d := g.d
	d.mu.Lock()
	t := d.tenantLocked(g.tenant)
	t.inflight--
	d.freeSlots++
	d.grantLocked()
	d.mu.Unlock()
}

// minActiveVTLocked returns the smallest virtual time among tenants
// with demand (in-flight tasks or waiters), excluding skip.
func (d *dispatcher) minActiveVTLocked(skip *tenantState) (float64, bool) {
	min, ok := 0.0, false
	for _, name := range d.names {
		t := d.tenants[name]
		if t == skip || (t.waiting == 0 && t.inflight == 0) {
			continue
		}
		if !ok || t.vt < min {
			min, ok = t.vt, true
		}
	}
	return min, ok
}

// grantLocked hands free task slots to waiters: among tenants with
// demand and headroom under their in-flight cap, the one with the
// smallest virtual time wins; each grant charges 1/weight.
func (d *dispatcher) grantLocked() {
	for d.freeSlots > 0 {
		demanding := 0
		var best *tenantState
		for _, name := range d.names {
			t := d.tenants[name]
			if t.waiting == 0 {
				continue
			}
			demanding++
			if t.cfg.MaxInFlightTasks > 0 && t.inflight >= t.cfg.MaxInFlightTasks {
				continue
			}
			if best == nil || t.vt < best.vt {
				best = t
			}
		}
		if best == nil {
			return
		}
		w := best.popWaiterLocked()
		if w == nil {
			return
		}
		best.waiting--
		best.inflight++
		if best.inflight > best.taskHigh {
			best.taskHigh = best.inflight
		}
		best.dispatched++
		if demanding >= 2 {
			best.contested++
		}
		best.vt += 1 / best.weight()
		d.freeSlots--
		w.granted = true
		w.ch <- struct{}{}
	}
}

func (t *tenantState) popWaiterLocked() *taskWaiter {
	for p := numPriorities - 1; p >= 0; p-- {
		q := t.waiters[p]
		for len(q) > 0 {
			w := q[0]
			q = q[1:]
			if w.cancelled {
				continue
			}
			t.waiters[p] = q
			return w
		}
		t.waiters[p] = q
	}
	return nil
}

// Stats snapshots every tenant's counters, sorted by tenant name.
func (d *dispatcher) stats() []TenantStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TenantStats, 0, len(d.names))
	for _, name := range d.names {
		t := d.tenants[name]
		out = append(out, TenantStats{
			Tenant:          name,
			Weight:          t.weight(),
			RunsAccepted:    t.accepted,
			RunsRejected:    t.rejected,
			RunsQueued:      t.queuedLen,
			RunsRunning:     t.running,
			RunHighwater:    t.runHigh,
			RunQuota:        t.cfg.MaxConcurrentRuns,
			TasksInflight:   t.inflight,
			TaskHighwater:   t.taskHigh,
			TasksDispatched: t.dispatched,
			ContestedGrants: t.contested,
		})
	}
	return out
}

// queueDepth is the current number of admitted-but-not-running runs.
func (d *dispatcher) queueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queuedRuns
}
