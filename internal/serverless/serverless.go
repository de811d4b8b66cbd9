// Package serverless implements the serverless platform of the
// reproduction: a Knative-equivalent that accepts function invocations as
// HTTP requests at an ingress, routes them to pods of a named service,
// and manages the pod fleet with a concurrency-based autoscaler
// supporting scale-to-zero, cold starts, per-pod worker pools
// (containerConcurrency), and per-pod resource requests enforced against
// the cluster substrate.
//
// The mechanisms that drive the paper's results are all here:
//
//   - a burst of invocations queues at the ingress while the autoscaler
//     adds pods, each paying a cold-start latency — group-1 workflows get
//     slower on serverless;
//   - pods exist only while demand exists (stable-window scale-down, then
//     scale-to-zero), so the time-averaged CPU reservation and resident
//     memory are far below an always-on container fleet — the paper's
//     78%/74% CPU/memory reductions;
//   - when pod reservations exhaust the cluster, scale-up stalls and
//     requests wait — the paper's "memory and CPU limits being reached"
//     failure mode for large fine-grained workflows.
package serverless

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/metrics"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

// ServiceConfig is the Knative Service manifest equivalent.
type ServiceConfig struct {
	// Name routes requests: POST <ingress>/<Name>/wfbench.
	Name string
	// Workers is the per-pod worker pool size (gunicorn --workers, the
	// paper's 1w/10w/1000w knob) and the autoscaler's per-pod
	// concurrency target.
	Workers int
	// CPURequestPerWorker and MemRequestPerWorker size the pod's
	// resource reservation: a pod reserves Workers x per-worker amounts.
	CPURequestPerWorker float64
	MemRequestPerWorker int64
	// MinScale/MaxScale bound the pod count. MaxScale 0 means unbounded
	// (the cluster's capacity is the only limit). MinScale == MaxScale
	// holds the service at a fixed scale: see DESIGN "Fixed-scale
	// services".
	MinScale int
	MaxScale int
	// MemLimit is a pod's hard memory limit in bytes (Knative's
	// limits.memory); 0 means none. An invocation that would take the
	// pod's resident memory past it fails with ErrOOM.
	MemLimit int64
	// KeepMem is the paper's persistent-memory (PM) knob: workers keep
	// their WfBench ballast between invocations.
	KeepMem bool
}

func (c *ServiceConfig) validate() error {
	if c.Name == "" {
		return errors.New("serverless: service needs a name")
	}
	if strings.ContainsAny(c.Name, "/ ") {
		return fmt.Errorf("serverless: invalid service name %q", c.Name)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("serverless: service %s needs >= 1 worker", c.Name)
	}
	if c.MinScale < 0 || c.MaxScale < 0 || (c.MaxScale > 0 && c.MinScale > c.MaxScale) {
		return fmt.Errorf("serverless: service %s has invalid scale bounds [%d,%d]", c.Name, c.MinScale, c.MaxScale)
	}
	if c.CPURequestPerWorker < 0 || c.MemRequestPerWorker < 0 || c.MemLimit < 0 {
		return fmt.Errorf("serverless: service %s has negative resource requests", c.Name)
	}
	return nil
}

// Options configures the platform.
type Options struct {
	// Cluster provides nodes; required.
	Cluster *cluster.Cluster
	// Drive is the shared drive; required.
	Drive sharedfs.Drive
	// TimeScale converts nominal paper seconds to wall time for every
	// latency below and for WfBench runs. Zero defaults to 1.
	TimeScale float64
	// Engine runs the WfBench stress phase; nil means SimEngine.
	Engine wfbench.Engine
	// ColdStart is the nominal pod startup latency (paper seconds).
	// Zero means instant starts (the coarse-grained scenario).
	ColdStart float64
	// AutoscalePeriod is the nominal autoscaler tick (paper seconds);
	// zero defaults to 2s.
	AutoscalePeriod float64
	// StableWindow is how long (paper seconds) a pod must sit idle
	// beyond the desired count before it is reclaimed; zero defaults
	// to 30s.
	StableWindow float64
	// PodOverheadMem is resident memory per pod (runtime + queue
	// proxy); WorkerOverheadMem is resident memory per pre-forked
	// worker. Both persist for the pod's lifetime.
	PodOverheadMem    int64
	WorkerOverheadMem int64
	// PodOverheadCPU is the small constant busy-CPU of a live pod's
	// sidecars.
	PodOverheadCPU float64
	// InputWait is how long (paper seconds) a WfBench invocation polls
	// for its input files; zero defaults to 5s.
	InputWait float64
	// QueueCapacity bounds a service's ingress queue, shared out among
	// the pods of a fixed-scale service; zero defaults to 16384.
	QueueCapacity int
	// InstantScaleUp disables the KPA-style doubling ramp and jumps
	// straight to the desired pod count each tick — an ablation knob
	// for quantifying how much of the serverless slowdown the gradual
	// ramp contributes.
	InstantScaleUp bool
	// Placer selects nodes for pod reservations; nil means first fit.
	Placer cluster.Placer
	// Tracer records platform spans (queue wait, cold start, pod
	// execution) for invocations whose callers propagated a sampled
	// trace context; the WfBench layer inherits the same tracer for its
	// phase spans. Nil disables span emission.
	Tracer *obs.Tracer
}

func (o *Options) applyDefaults() error {
	if o.Cluster == nil || o.Drive == nil {
		return errors.New("serverless: Options need Cluster and Drive")
	}
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	if o.TimeScale < 0 {
		return fmt.Errorf("serverless: negative TimeScale")
	}
	if o.Engine == nil {
		o.Engine = wfbench.SimEngine{}
	}
	if o.AutoscalePeriod == 0 {
		o.AutoscalePeriod = 2
	}
	if o.StableWindow == 0 {
		o.StableWindow = 30
	}
	if o.InputWait == 0 {
		o.InputWait = 5
	}
	if o.QueueCapacity == 0 {
		o.QueueCapacity = 16384
	}
	return nil
}

func (o *Options) scaled(nominalSeconds float64) time.Duration {
	return time.Duration(nominalSeconds * o.TimeScale * float64(time.Second))
}

// invocation is one in-flight function request. parent is the trace
// context propagated by the caller (a Traceparent header at the
// ingress, or in-process via obs.ContextWithSpan); queue is the open
// queue-wait span. Invoke owns the queue span until the enqueue
// succeeds; after that the worker that dequeues the invocation
// finishes it, so the span is closed exactly once on every path.
type invocation struct {
	req    *wfbench.Request
	parent obs.SpanContext
	queue  *obs.Span
	// resp is where the worker puts the Response and err what execution
	// returned; both are the collector's once idx has arrived on done.
	// Batch members share one done channel, sized for the whole batch, and
	// idx is the member's frame; a single invocation has its own and idx 0.
	resp *wfbench.Response
	err  error
	done chan int32
	idx  int32
	// prep, when set, carries the batch's shared input verification so
	// the worker skips the per-task input wait.
	prep *wfbench.BatchPrep
}

// invocationSlab is the in-flight state of one batch: an invocation per
// frame and the channel they report on. It goes back to slabs only once
// every invocation enqueued from it was received — after that no worker
// holds a pointer into it.
type invocationSlab struct {
	invs []invocation
	done chan int32
}

var slabs sync.Pool

func newSlab(n int) *invocationSlab {
	s, _ := slabs.Get().(*invocationSlab)
	if s == nil || cap(s.invs) < n {
		s = &invocationSlab{invs: make([]invocation, n), done: make(chan int32, n)}
	}
	s.invs = s.invs[:n]
	return s
}

// Platform is the serverless platform. Create with New, then Start to
// listen on the loopback ingress, Apply services, and Stop when done.
// It is a wfbench.BatchExecutor whose route is the service name.
type Platform struct {
	opts     Options
	endpoint *wfbench.Endpoint

	mu       sync.Mutex
	services map[string]*service
	ingress  *wfbench.Loopback
	stopCh   chan struct{}
	stopped  bool
	asWG     sync.WaitGroup

	requests   atomic.Int64
	coldStarts atomic.Int64
	failures   atomic.Int64
	// scaleStalls counts autoscaler ticks where a needed pod could not
	// be placed for lack of cluster resources.
	scaleStalls atomic.Int64
	// latency tracks end-to-end invocation wall time (queue wait plus
	// execution), exposed as a histogram at GET /metrics.
	latency metrics.Histogram
}

// New returns an unstarted platform.
func New(opts Options) (*Platform, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	p := &Platform{
		opts:     opts,
		services: make(map[string]*service),
		stopCh:   make(chan struct{}),
	}
	p.endpoint = wfbench.NewEndpoint(p)
	return p, nil
}

// Start binds the ingress to a loopback port and launches the autoscaler.
// It returns the ingress base URL.
func (p *Platform) Start() (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ingress != nil {
		return "", errors.New("serverless: already started")
	}
	ingress, err := wfbench.ListenLoopback(p)
	if err != nil {
		return "", fmt.Errorf("serverless: ingress: %w", err)
	}
	p.ingress = ingress

	p.asWG.Add(1)
	go p.autoscaleLoop()
	return ingress.URL(), nil
}

// URL returns the ingress base URL ("" before Start).
func (p *Platform) URL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ingress.URL()
}

// Stop tears down all services, the autoscaler, and the ingress.
func (p *Platform) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	close(p.stopCh)
	ingress := p.ingress
	svcs := make([]*service, 0, len(p.services))
	for _, s := range p.services {
		svcs = append(svcs, s)
	}
	p.services = make(map[string]*service)
	p.mu.Unlock()

	p.asWG.Wait()
	for _, s := range svcs {
		s.shutdown()
	}
	ingress.Close()
}

// Apply creates or replaces a service (replacement tears down the old
// incarnation first) and returns once its MinScale pods serve. Those
// pods are the deployment, not demand: they are not cold starts.
func (p *Platform) Apply(cfg ServiceConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if pool := p.opts.PodOverheadMem + int64(cfg.Workers)*p.opts.WorkerOverheadMem; cfg.MemLimit > 0 && pool > cfg.MemLimit {
		return fmt.Errorf("serverless: service %s: worker pool needs %d bytes, limit %d: %w", cfg.Name, pool, cfg.MemLimit, ErrOOM)
	}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return errors.New("serverless: platform stopped")
	}
	old := p.services[cfg.Name]
	svc := newService(p, cfg)
	p.services[cfg.Name] = svc
	p.mu.Unlock()
	if old != nil {
		old.shutdown()
	}
	pods := make([]*pod, cfg.MinScale)
	for i := range pods {
		pd, err := svc.addPod(false)
		if err != nil {
			p.mu.Lock()
			if p.services[cfg.Name] == svc {
				delete(p.services, cfg.Name)
			}
			p.mu.Unlock()
			svc.shutdown()
			return fmt.Errorf("serverless: service %s min-scale: %w", cfg.Name, err)
		}
		pods[i] = pd
	}
	for _, pd := range pods {
		select {
		case <-pd.ready:
		case <-pd.stopCh:
		}
	}
	svc.deployed.Store(true)
	return nil
}

// Delete removes a service and reclaims its pods.
func (p *Platform) Delete(name string) {
	p.mu.Lock()
	svc := p.services[name]
	delete(p.services, name)
	p.mu.Unlock()
	if svc != nil {
		svc.shutdown()
	}
}

func (p *Platform) serviceList() []*service {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*service, 0, len(p.services))
	names := make([]string, 0, len(p.services))
	for n := range p.services {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, p.services[n])
	}
	return out
}

// Pods returns the number of live pods across all services.
func (p *Platform) Pods() int {
	n := 0
	for _, s := range p.serviceList() {
		n += s.podCount()
	}
	return n
}

// QueueDepth returns the total queued (not yet executing) invocations.
func (p *Platform) QueueDepth() int {
	n := 0
	for _, s := range p.serviceList() {
		n += s.queued()
	}
	return n
}

// ColdStarts returns the cumulative pod cold starts.
func (p *Platform) ColdStarts() int64 { return p.coldStarts.Load() }

// Requests returns the cumulative invocation count.
func (p *Platform) Requests() int64 { return p.requests.Load() }

// Failures returns the cumulative failed invocations.
func (p *Platform) Failures() int64 { return p.failures.Load() }

// ScaleStalls returns autoscaler ticks that could not place a needed pod.
func (p *Platform) ScaleStalls() int64 { return p.scaleStalls.Load() }

// ErrOverloaded is returned when an invocation cannot be accepted
// because the service's queue is full — backpressure the caller should
// respond to by retrying later: it travels as a 429 whose Retry-After is
// one autoscale period, the soonest capacity can change.
var ErrOverloaded = errors.New("serverless: overloaded")

// ErrStopped is returned for invocations arriving after Close (a 503).
var ErrStopped = errors.New("serverless: platform stopped")

// ErrOOM fails an invocation that would take its pod past the service's
// MemLimit (the OOM kill), and an Apply whose worker pool alone would.
var ErrOOM = errors.New("serverless: memory limit exceeded")

// lookup resolves a service name. A missing service is a 503 either way;
// Stop tears the service map down, so after it the error reports
// shutdown, not a configuration mistake.
func (p *Platform) lookup(name string) (*service, error) {
	p.mu.Lock()
	svc := p.services[name]
	stopped := p.stopped
	p.mu.Unlock()
	if svc == nil {
		if stopped {
			return nil, fmt.Errorf("serverless: %s: %w", name, ErrStopped)
		}
		return nil, fmt.Errorf("serverless: no such service %q", name)
	}
	return svc, nil
}

// refuse closes out an invocation that never reached the queue and
// returns the error it fails with. cause is ErrStopped or the caller's
// ctx.Err(); a caller that gave up on a full queue is told the platform
// is overloaded, because only that is the platform's fault and only that
// should read as retry-later to the workflow manager.
func (p *Platform) refuse(svc *service, queue chan *invocation, inv *invocation, cause error) error {
	reason := "cancelled before dispatch"
	if cause == ErrStopped {
		reason = "platform stopped"
	}
	inv.queue.SetAttr("error", reason)
	inv.queue.Finish()
	p.failures.Add(1)
	if cause != ErrStopped && len(queue) >= cap(queue) {
		return &wfbench.StatusError{
			Status:     http.StatusTooManyRequests,
			RetryAfter: p.opts.scaled(p.opts.AutoscalePeriod),
			Err:        fmt.Errorf("serverless: %s: queue full: %w: %w", svc.cfg.Name, ErrOverloaded, cause),
		}
	}
	return fmt.Errorf("serverless: %s: %w", svc.cfg.Name, cause)
}

// Invoke executes one function on the named service. The ingress and
// in-process callers share this path.
func (p *Platform) Invoke(ctx context.Context, serviceName string, req *wfbench.Request) (*wfbench.Response, error) {
	svc, err := p.lookup(serviceName)
	if err != nil {
		return nil, err
	}
	p.requests.Add(1)
	start := time.Now()
	// One allocation holds the invocation and the Response it answers with.
	one := new(struct {
		invocation
		resp wfbench.Response
	})
	inv := &one.invocation
	*inv = invocation{req: req, resp: &one.resp, done: make(chan int32, 1), parent: obs.SpanFromContext(ctx)}
	inv.queue = p.opts.Tracer.StartChild(inv.parent, "queue", obs.LayerPlatform)
	svc.inflight.Add(1)
	defer svc.inflight.Add(-1)
	queue := svc.queueAt(svc.take(1))
	select {
	case queue <- inv:
	case <-ctx.Done():
		return nil, p.refuse(svc, queue, inv, ctx.Err())
	case <-p.stopCh:
		return nil, p.refuse(svc, queue, inv, ErrStopped)
	}
	select {
	case <-inv.done:
		p.latency.ObserveDuration(time.Since(start))
		if inv.err != nil {
			p.failures.Add(1)
		}
		return inv.resp, inv.err
	case <-ctx.Done():
		p.failures.Add(1)
		return nil, ctx.Err()
	}
}

// InvokeBatch is ServeBatch for an in-process caller that holds frames,
// not a request: the result frames come back as the wire would carry
// them, every Payload rendered.
func (p *Platform) InvokeBatch(ctx context.Context, serviceName string, items []wfbench.BatchItem) []wfbench.BatchResult {
	b, err := wfbench.NewBatch(wfbench.EncodeBatchRequest(items))
	if err != nil {
		results := make([]wfbench.BatchResult, len(items))
		for i := range results {
			results[i] = wfbench.ResultFrame(nil, err)
		}
		return results
	}
	p.ServeBatch(ctx, serviceName, b)
	results, _ := wfbench.DecodeBatchResponse(bytes.NewReader(wfbench.EncodeBatchResponse(b.Results))) // what was just encoded decodes
	return results
}

// ServeBatch executes a framed batch on the named service, and is why
// the platform overrides the endpoint's frame-per-goroutine default: the
// batch's input-file union is waited for and content-hashed once
// (wfbench.PrepareInputs), then every valid sub-request is handed to the
// service queue in one pass — warm pods pull them concurrently, so the
// batch fans out across the fleet — and the results are collected on one
// shared channel. Each frame fails exactly as Invoke would have.
func (p *Platform) ServeBatch(ctx context.Context, serviceName string, b *wfbench.Batch) {
	results := b.Results
	svc, err := p.lookup(serviceName)
	if err != nil {
		for i := range results {
			results[i] = wfbench.ResultFrame(nil, err)
		}
		return
	}
	prep := wfbench.PrepareInputs(ctx, p.opts.Drive, b.Decode(), p.opts.scaled(p.opts.InputWait))

	slab := newSlab(len(results))
	enqueued := 0
	next := svc.take(len(results))
	start := time.Now()
enqueue:
	for i := range results {
		if !b.Pending(i) {
			continue
		}
		var parent obs.SpanContext
		if sc, ok := obs.ParseTraceparent(b.Items[i].Traceparent); ok {
			parent = sc
		}
		p.requests.Add(1)
		inv := &slab.invs[i]
		*inv = invocation{req: &b.Reqs[i], resp: &b.Resps[i], done: slab.done, parent: parent, idx: int32(i), prep: prep}
		inv.queue = p.opts.Tracer.StartChild(parent, "queue", obs.LayerPlatform)
		queue := svc.queueAt(next + uint64(i))
		select {
		case queue <- inv:
			svc.inflight.Add(1)
			enqueued++
		case <-ctx.Done():
			results[i] = wfbench.ResultFrame(nil, p.refuse(svc, queue, inv, ctx.Err()))
		case <-p.stopCh:
			// Everything not yet enqueued shares the shutdown verdict.
			stopped := wfbench.ResultFrame(nil, p.refuse(svc, queue, inv, ErrStopped))
			for j := i; j < len(results); j++ {
				if b.Pending(j) {
					results[j] = stopped
				}
			}
			break enqueue
		}
	}

	for received := 0; received < enqueued; received++ {
		select {
		case i := <-slab.done:
			svc.inflight.Add(-1)
			p.latency.ObserveDuration(time.Since(start))
			inv := &slab.invs[i]
			results[i] = wfbench.ResultFrame(inv.resp, inv.err)
			if inv.err != nil {
				p.failures.Add(1)
			}
		case <-ctx.Done():
			// The caller gave up mid-batch. Mark the still-pending frames
			// cancelled and drain the stragglers in the background so the
			// inflight gauge (the autoscaler's demand signal) stays honest.
			// Workers still hold parts of the batch and the slab: neither
			// is recycled.
			b.Abandon()
			cancelled := wfbench.ResultFrame(nil, fmt.Errorf("serverless: %s: %w", serviceName, ctx.Err()))
			for i := range results {
				if b.Pending(i) {
					p.failures.Add(1)
					results[i] = cancelled
				}
			}
			go func(remaining int) {
				for ; remaining > 0; remaining-- {
					<-slab.done
					svc.inflight.Add(-1)
				}
			}(enqueued - received)
			return
		}
	}
	slabs.Put(slab)
}

// Stats is the operational snapshot served at GET /stats.
type Stats struct {
	Pods        int                     `json:"pods"`
	QueueDepth  int                     `json:"queueDepth"`
	ColdStarts  int64                   `json:"coldStarts"`
	Requests    int64                   `json:"requests"`
	Failures    int64                   `json:"failures"`
	ScaleStalls int64                   `json:"scaleStalls"`
	Services    map[string]ServiceStats `json:"services"`
}

// ServiceStats is the per-service portion of Stats.
type ServiceStats struct {
	Pods     int   `json:"pods"`
	Queued   int   `json:"queued"`
	Inflight int64 `json:"inflight"`
}

// Stats returns the platform's operational snapshot.
func (p *Platform) Stats() Stats {
	st := Stats{
		ColdStarts:  p.coldStarts.Load(),
		Requests:    p.requests.Load(),
		Failures:    p.failures.Load(),
		ScaleStalls: p.scaleStalls.Load(),
		Services:    make(map[string]ServiceStats),
	}
	for _, svc := range p.serviceList() {
		ss := ServiceStats{
			Pods:     svc.podCount(),
			Queued:   svc.queued(),
			Inflight: svc.inflight.Load(),
		}
		st.Services[svc.cfg.Name] = ss
		st.Pods += ss.Pods
		st.QueueDepth += ss.Queued
	}
	return st
}

// ServeHTTP serves the platform's own GET /stats and /metrics;
// everything else is the function endpoint, routed by service name.
func (p *Platform) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/stats" && r.Method == http.MethodGet {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p.Stats())
		return
	}
	if r.URL.Path == "/metrics" && r.Method == http.MethodGet {
		obs.ServeMetrics(w, r, p.WriteMetrics)
		return
	}
	p.endpoint.ServeHTTP(w, r)
}

// autoscaleLoop evaluates every service each tick: the desired pod count
// is ceil(inflight / workers) clamped to the scale bounds (the KPA's
// concurrency-per-pod rule), scaling up immediately and scaling down
// pods that sat idle for a stable window.
func (p *Platform) autoscaleLoop() {
	defer p.asWG.Done()
	ticker := time.NewTicker(p.opts.scaled(p.opts.AutoscalePeriod))
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-ticker.C:
			for _, svc := range p.serviceList() {
				p.autoscale(svc)
			}
		}
	}
}

func (p *Platform) autoscale(svc *service) {
	if !svc.deployed.Load() {
		return // Apply is still starting the min-scale pods
	}
	inflight := int(svc.inflight.Load())
	desired := (inflight + svc.cfg.Workers - 1) / svc.cfg.Workers
	if desired < svc.cfg.MinScale {
		desired = svc.cfg.MinScale
	}
	if svc.cfg.MaxScale > 0 && desired > svc.cfg.MaxScale {
		desired = svc.cfg.MaxScale
	}
	cur := svc.podCount()
	if cur < desired {
		// Ramp up by at most doubling per tick (one pod from zero),
		// the KPA-style gradual scale-up. This is why fewer, larger
		// pods (10w) reach a burst's demand in fewer ticks than many
		// 1-worker pods — the paper's Figure 4 observation.
		allowed := cur
		if allowed < 1 {
			allowed = 1
		}
		target := cur + allowed
		if target > desired || p.opts.InstantScaleUp {
			target = desired
		}
		for cur < target {
			if _, err := svc.addPod(true); err != nil {
				p.scaleStalls.Add(1)
				break // resource pressure: retry next tick
			}
			cur++
		}
	}
	if cur > desired {
		svc.reapIdle(cur-desired, p.opts.scaled(p.opts.StableWindow))
	}
}

// service is the runtime state of one applied ServiceConfig.
type service struct {
	p   *Platform
	cfg ServiceConfig
	// queues holds one queue the pods share, or, for a fixed-scale
	// service, one per pod (pod i reads queues[i]). Invocations take
	// them round-robin; take and queueAt say how.
	queues   []chan *invocation
	rr       atomic.Uint64
	inflight atomic.Int64
	// deployed is set once Apply's min-scale pods serve; the autoscaler
	// leaves the service alone until then.
	deployed atomic.Bool

	mu      sync.Mutex
	pods    []*pod
	nextPod int
	dead    bool
}

func newService(p *Platform, cfg ServiceConfig) *service {
	n := 1
	if cfg.MinScale > 0 && cfg.MinScale == cfg.MaxScale {
		n = cfg.MaxScale
	}
	s := &service{p: p, cfg: cfg, queues: make([]chan *invocation, n)}
	for i := range s.queues {
		s.queues[i] = make(chan *invocation, max(1, p.opts.QueueCapacity/n))
	}
	return s
}

// take reserves n consecutive round-robin slots for invocations
// dispatched together and returns the first: one counter step per call,
// however many frames a batch holds.
func (s *service) take(n int) uint64 {
	if len(s.queues) == 1 {
		return 0
	}
	return s.rr.Add(uint64(n)) - uint64(n)
}

// queueAt is the queue of round-robin slot k.
func (s *service) queueAt(k uint64) chan *invocation {
	return s.queues[k%uint64(len(s.queues))]
}

// queued is the number of invocations waiting in the service's queues.
func (s *service) queued() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

func (s *service) podCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pods)
}

// addPod reserves resources, then brings a pod up after the cold-start
// latency. A pod the autoscaler adds for demand counts as a cold start,
// and so does the first request it serves; a deployment pod is neither.
func (s *service) addPod(coldStart bool) (*pod, error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return nil, errors.New("serverless: service deleted")
	}
	id := s.nextPod
	s.nextPod++
	s.mu.Unlock()

	// A limit without a request sets the request, as in Kubernetes.
	cores := float64(s.cfg.Workers) * s.cfg.CPURequestPerWorker
	mem := max(int64(s.cfg.Workers)*s.cfg.MemRequestPerWorker+s.p.opts.PodOverheadMem, s.cfg.MemLimit)
	res, err := s.p.opts.Cluster.PlaceWith(s.p.opts.Placer, cores, mem)
	if err != nil {
		return nil, err
	}
	pd, err := newPod(s, id, res)
	if err != nil {
		res.Release()
		return nil, err
	}
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		pd.stop()
		return nil, errors.New("serverless: service deleted")
	}
	s.pods = append(s.pods, pd)
	s.mu.Unlock()
	if coldStart {
		s.p.coldStarts.Add(1)
	} else {
		pd.served.Store(true)
	}
	pd.start(s.p.opts.scaled(s.p.opts.ColdStart))
	return pd, nil
}

// reapIdle terminates up to n pods that have been idle longer than the
// stable window.
func (s *service) reapIdle(n int, window time.Duration) {
	now := time.Now()
	var victims []*pod
	s.mu.Lock()
	keep := s.pods[:0]
	for _, pd := range s.pods {
		if len(victims) < n && pd.idleSince(now) > window {
			victims = append(victims, pd)
		} else {
			keep = append(keep, pd)
		}
	}
	s.pods = keep
	s.mu.Unlock()
	for _, pd := range victims {
		pd.stop()
	}
}

// shutdown stops all pods and marks the service dead.
func (s *service) shutdown() {
	s.mu.Lock()
	s.dead = true
	pods := s.pods
	s.pods = nil
	s.mu.Unlock()
	for _, pd := range pods {
		pd.stop()
	}
}

// podUsage is what a pod's WfBench registers resource use with: it
// forwards to the node and keeps the pod's own resident total, which
// the service's MemLimit is checked against.
type podUsage struct {
	*cluster.Node
	used atomic.Int64
}

func (u *podUsage) AddMem(bytes int64) {
	u.used.Add(bytes)
	u.Node.AddMem(bytes)
}

// pod is one scheduled replica: a resource reservation plus a pool of
// worker goroutines pulling invocations from its queue.
type pod struct {
	svc   *service
	name  string
	res   *cluster.Reservation
	queue chan *invocation
	usage podUsage

	bench   *wfbench.Bench
	workers []*wfbench.Worker

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	// ready closes once the workers serve.
	ready chan struct{}

	// lifeMu serializes start against stop: addPod publishes the pod
	// before calling start, so a concurrent shutdown/reap may stop the
	// pod first — start must then be a no-op rather than racing its
	// wg.Add against stop's wg.Wait and registering overheads on a
	// released reservation.
	lifeMu  sync.Mutex
	stopped bool

	active     atomic.Int64
	lastActive atomic.Int64 // UnixNano

	// createdAt/readyAt bound the cold start: scheduling at newPod,
	// workers live after the ColdStart sleep. readyAt is written before
	// the worker goroutines launch, so worker loops read it safely.
	// served flips on the first invocation a pod handles — that request
	// paid the cold start and reports ColdStart in its response. A
	// deployment pod starts with it set: it had no request waiting.
	createdAt time.Time
	readyAt   time.Time
	served    atomic.Bool

	// What start registered on the node, for stop to take off again.
	overheadMem int64
	overheadCPU float64
}

func newPod(s *service, id int, res *cluster.Reservation) (*pod, error) {
	opts := s.p.opts
	pd := &pod{
		svc:       s,
		name:      fmt.Sprintf("%s-pod-%05d", s.cfg.Name, id),
		res:       res,
		queue:     s.queues[id%len(s.queues)],
		usage:     podUsage{Node: res.Node()},
		stopCh:    make(chan struct{}),
		ready:     make(chan struct{}),
		createdAt: time.Now(),
	}
	bench, err := wfbench.New(wfbench.Config{
		Drive:     opts.Drive,
		Engine:    opts.Engine,
		Usage:     &pd.usage,
		TimeScale: opts.TimeScale,
		InputWait: opts.scaled(opts.InputWait),
		KeepMem:   s.cfg.KeepMem,
		Tracer:    opts.Tracer,
	})
	if err != nil {
		return nil, err
	}
	pd.bench = bench
	pd.lastActive.Store(time.Now().UnixNano())
	for i := 0; i < s.cfg.Workers; i++ {
		pd.workers = append(pd.workers, bench.NewWorker())
	}
	return pd, nil
}

// start sleeps through the cold start, registers the pod's resident
// overheads, and launches the worker loops.
func (pd *pod) start(coldStart time.Duration) {
	pd.lifeMu.Lock()
	if pd.stopped {
		pd.lifeMu.Unlock()
		return
	}
	pd.wg.Add(1)
	pd.lifeMu.Unlock()
	go func() {
		defer pd.wg.Done()
		if coldStart > 0 {
			t := time.NewTimer(coldStart)
			defer t.Stop()
			select {
			case <-pd.stopCh:
				return
			case <-t.C:
			}
		}
		pd.readyAt = time.Now()
		opts := pd.svc.p.opts
		pd.overheadMem = opts.PodOverheadMem + int64(len(pd.workers))*opts.WorkerOverheadMem
		pd.overheadCPU = opts.PodOverheadCPU
		pd.usage.AddMem(pd.overheadMem)
		pd.usage.AddBusy(pd.overheadCPU)
		for _, w := range pd.workers {
			pd.wg.Add(1)
			go pd.workerLoop(w)
		}
		close(pd.ready)
	}()
}

func (pd *pod) workerLoop(w *wfbench.Worker) {
	defer pd.wg.Done()
	for {
		select {
		case <-pd.stopCh:
			return
		case inv := <-pd.queue:
			pd.active.Add(1)
			inv.queue.Finish()
			tracer := pd.svc.p.opts.Tracer
			first := !pd.served.Swap(true)
			if first {
				// The first request a pod serves is the one that waited
				// out its cold start; attribute the boot window to it.
				if cs := tracer.StartChild(inv.parent, "coldstart", obs.LayerPlatform); cs != nil {
					cs.SetStart(pd.createdAt)
					cs.SetAttr("pod", pd.name)
					cs.FinishAt(pd.readyAt)
				}
			}
			exec := tracer.StartChild(inv.parent, "execute", obs.LayerPlatform)
			exec.SetAttr("pod", pd.name)
			// Workers honour no per-request deadline (gunicorn --timeout
			// 0), so the trace context rides a fresh background context.
			ctx := context.Background()
			if exec != nil {
				ctx = obs.ContextWithSpan(ctx, exec.Context())
			}
			if lim, used := pd.svc.cfg.MemLimit, pd.usage.used.Load(); lim > 0 && used+inv.req.MemBytes > lim {
				// The check is made before the ballast is paged in; two
				// workers may pass it together and overshoot, like real
				// allocation racing the OOM killer.
				*inv.resp = wfbench.Response{Name: inv.req.Name, Error: ErrOOM.Error()}
				inv.err = fmt.Errorf("%w: pod %s: %d resident + %d requested > limit %d",
					ErrOOM, pd.name, used, inv.req.MemBytes, lim)
			} else {
				inv.err = w.ExecuteInto(ctx, inv.req, inv.prep, inv.resp)
			}
			inv.resp.Pod = pd.name
			inv.resp.ColdStart = first
			if inv.err != nil {
				exec.SetAttr("error", inv.err.Error())
			}
			exec.Finish()
			pd.active.Add(-1)
			pd.lastActive.Store(time.Now().UnixNano())
			inv.done <- inv.idx // inv is the collector's from here
		}
	}
}

// idleSince returns how long the pod has been idle, or 0 if it has
// active work.
func (pd *pod) idleSince(now time.Time) time.Duration {
	if pd.active.Load() > 0 {
		return 0
	}
	return now.Sub(time.Unix(0, pd.lastActive.Load()))
}

// stop terminates the pod: workers drain, overheads and ballast are
// released, and the reservation returns to the node. Runs asynchronously
// with respect to in-flight work; safe to call multiple times.
func (pd *pod) stop() {
	pd.stopOnce.Do(func() {
		pd.lifeMu.Lock()
		pd.stopped = true
		close(pd.stopCh)
		pd.lifeMu.Unlock()
		go func() {
			pd.wg.Wait()
			for _, w := range pd.workers {
				w.Close()
			}
			pd.usage.AddMem(-pd.overheadMem)
			pd.usage.AddBusy(-pd.overheadCPU)
			pd.res.Release()
		}()
	})
}
