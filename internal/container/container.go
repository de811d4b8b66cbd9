// Package container implements the paper's baseline computational
// paradigm: WfBench served from bare-metal local containers (Section
// III-D). Unlike the serverless platform, containers are provisioned
// up front and stay up for the whole run — each holds its CPU
// reservation (docker --cpus) and its pre-forked worker pool's resident
// memory regardless of demand, which is precisely why the baseline's
// time-averaged CPU and memory usage are high. A container may carry a
// hard memory limit; exceeding it fails the invocation (the docker OOM
// kill), unless the paradigm is NoCR (no CPU requirement / no limits).
package container

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

// ErrOOM is returned when an invocation would push a container past its
// memory limit.
var ErrOOM = errors.New("container: memory limit exceeded")

// Config describes one local container (the docker run flags).
type Config struct {
	// Name routes requests: POST <runtime>/<Name>/wfbench.
	Name string
	// Workers is the gunicorn worker-pool size.
	Workers int
	// CPUs is the docker --cpus reservation; 0 means no CPU requirement
	// (the paper's NoCR).
	CPUs float64
	// MemLimit is the hard memory limit in bytes; 0 means unlimited
	// (NoCR), letting the container "consume more memory, as observed".
	MemLimit int64
	// KeepMem is the persistent-memory (PM) knob.
	KeepMem bool
}

func (c *Config) validate() error {
	if c.Name == "" {
		return errors.New("container: needs a name")
	}
	if strings.ContainsAny(c.Name, "/ ") {
		return fmt.Errorf("container: invalid name %q", c.Name)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("container: %s needs >= 1 worker", c.Name)
	}
	if c.CPUs < 0 || c.MemLimit < 0 {
		return fmt.Errorf("container: %s has negative resources", c.Name)
	}
	return nil
}

// Options configures the runtime.
type Options struct {
	Cluster *cluster.Cluster
	Drive   sharedfs.Drive
	// TimeScale, Engine, InputWait as in the serverless platform.
	TimeScale float64
	Engine    wfbench.Engine
	InputWait float64 // nominal paper seconds; zero defaults to 5s
	// PodOverheadMem / WorkerOverheadMem: resident memory of the
	// container runtime and each pre-forked worker, held for the whole
	// container lifetime.
	PodOverheadMem    int64
	WorkerOverheadMem int64
	// PodOverheadCPU is the container's constant background CPU.
	PodOverheadCPU float64
	QueueCapacity  int
	// Placer selects nodes for container reservations; nil = first fit.
	Placer cluster.Placer
}

func (o *Options) applyDefaults() error {
	if o.Cluster == nil || o.Drive == nil {
		return errors.New("container: Options need Cluster and Drive")
	}
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	if o.TimeScale < 0 {
		return errors.New("container: negative TimeScale")
	}
	if o.Engine == nil {
		o.Engine = wfbench.SimEngine{}
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

// Runtime hosts a fleet of always-on containers behind a loopback
// function endpoint (it is a wfbench.Executor). The route names one
// container; the empty route — POST /wfbench — spreads over the fleet,
// standing in for the host port mapping of the paper's docker setup.
type Runtime struct {
	opts Options

	mu         sync.Mutex
	containers map[string]*Container
	endpoint   *wfbench.Loopback
	stopped    bool

	requests atomic.Int64
	failures atomic.Int64
	ooms     atomic.Int64
	rr       atomic.Int64
}

// NewRuntime returns an unstarted runtime.
func NewRuntime(opts Options) (*Runtime, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	return &Runtime{opts: opts, containers: make(map[string]*Container)}, nil
}

// Start binds the loopback endpoint and returns its base URL.
func (r *Runtime) Start() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.endpoint != nil {
		return "", errors.New("container: already started")
	}
	endpoint, err := wfbench.ListenLoopback(wfbench.NewEndpoint(r))
	if err != nil {
		return "", fmt.Errorf("container: %w", err)
	}
	r.endpoint = endpoint
	return endpoint.URL(), nil
}

// URL returns the endpoint base URL ("" before Start).
func (r *Runtime) URL() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.endpoint.URL()
}

// Stop removes all containers and closes the endpoint.
func (r *Runtime) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	cs := make([]*Container, 0, len(r.containers))
	for _, c := range r.containers {
		cs = append(cs, c)
	}
	r.containers = make(map[string]*Container)
	endpoint := r.endpoint
	r.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
	endpoint.Close()
}

// Run starts a container (docker run). Resources are reserved
// immediately and held until Remove/Stop.
func (r *Runtime) Run(cfg Config) (*Container, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return nil, errors.New("container: runtime stopped")
	}
	if _, dup := r.containers[cfg.Name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("container: name %q in use", cfg.Name)
	}
	r.mu.Unlock()

	res, err := r.opts.Cluster.PlaceWith(r.opts.Placer, cfg.CPUs, cfg.MemLimit)
	if err != nil {
		return nil, err
	}
	c, err := newContainer(r, cfg, res)
	if err != nil {
		res.Release()
		return nil, err
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		c.stop()
		return nil, errors.New("container: runtime stopped")
	}
	r.containers[cfg.Name] = c
	r.mu.Unlock()
	return c, nil
}

// Remove stops and deletes a container by name.
func (r *Runtime) Remove(name string) {
	r.mu.Lock()
	c := r.containers[name]
	delete(r.containers, name)
	r.mu.Unlock()
	if c != nil {
		c.stop()
	}
}

// Containers returns the live containers sorted by name.
func (r *Runtime) Containers() []*Container {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.containers))
	for n := range r.containers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Container, 0, len(names))
	for _, n := range names {
		out = append(out, r.containers[n])
	}
	return out
}

// Requests returns cumulative invocations.
func (r *Runtime) Requests() int64 { return r.requests.Load() }

// Failures returns cumulative failed invocations.
func (r *Runtime) Failures() int64 { return r.failures.Load() }

// OOMs returns cumulative memory-limit failures.
func (r *Runtime) OOMs() int64 { return r.ooms.Load() }

// QueueDepth returns queued (not yet executing) invocations across
// containers.
func (r *Runtime) QueueDepth() int {
	n := 0
	for _, c := range r.Containers() {
		n += len(c.queue)
	}
	return n
}

// Invoke executes a request on the named container, or round-robin
// across the fleet when name is empty (the kernel's connection
// distribution across the published port). Round-robin rather than
// least-loaded: under a thundering-herd phase every caller would read
// the same stale load snapshot and pile onto one container.
func (r *Runtime) Invoke(ctx context.Context, name string, req *wfbench.Request) (*wfbench.Response, error) {
	var c *Container
	if name == "" {
		c = r.nextContainer()
	} else {
		r.mu.Lock()
		c = r.containers[name]
		r.mu.Unlock()
	}
	if c == nil {
		return nil, fmt.Errorf("container: no such container %q", name)
	}
	r.requests.Add(1)
	resp, err := c.invoke(ctx, req)
	if err != nil {
		r.failures.Add(1)
		if errors.Is(err, ErrOOM) {
			r.ooms.Add(1)
		}
	}
	return resp, err
}

func (r *Runtime) nextContainer() *Container {
	cs := r.Containers()
	if len(cs) == 0 {
		return nil
	}
	n := r.rr.Add(1)
	return cs[int(n-1)%len(cs)]
}

// limitedUsage forwards usage registrations to the node while tracking
// the container's own resident total, so the memory limit can be
// enforced.
type limitedUsage struct {
	node *cluster.Node
	used atomic.Int64
}

func (u *limitedUsage) AddBusy(cores float64) { u.node.AddBusy(cores) }

func (u *limitedUsage) AddMem(bytes int64) {
	u.used.Add(bytes)
	u.node.AddMem(bytes)
}

// Container is one always-on WfBench container.
type Container struct {
	rt  *Runtime
	cfg Config
	res *cluster.Reservation

	usage   *limitedUsage
	bench   *wfbench.Bench
	queue   chan *work
	stopCh  chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	baseMem int64

	inflight atomic.Int64
	served   atomic.Int64
}

type work struct {
	req    *wfbench.Request
	respCh chan workResult
}

type workResult struct {
	resp *wfbench.Response
	err  error
}

func newContainer(r *Runtime, cfg Config, res *cluster.Reservation) (*Container, error) {
	usage := &limitedUsage{node: res.Node()}
	bench, err := wfbench.New(wfbench.Config{
		Drive:     r.opts.Drive,
		Engine:    r.opts.Engine,
		Usage:     usage,
		TimeScale: r.opts.TimeScale,
		InputWait: r.opts.scaled(r.opts.InputWait),
		KeepMem:   cfg.KeepMem,
	})
	if err != nil {
		return nil, err
	}
	c := &Container{
		rt:     r,
		cfg:    cfg,
		res:    res,
		usage:  usage,
		bench:  bench,
		queue:  make(chan *work, r.opts.QueueCapacity),
		stopCh: make(chan struct{}),
	}
	c.baseMem = r.opts.PodOverheadMem + int64(cfg.Workers)*r.opts.WorkerOverheadMem
	if cfg.MemLimit > 0 && c.baseMem > cfg.MemLimit {
		return nil, fmt.Errorf("container: %s: worker pool needs %d bytes, limit %d: %w",
			cfg.Name, c.baseMem, cfg.MemLimit, ErrOOM)
	}
	// The resident overheads, held until stop.
	usage.AddMem(c.baseMem)
	usage.AddBusy(r.opts.PodOverheadCPU)
	for i := 0; i < cfg.Workers; i++ {
		w := bench.NewWorker()
		c.wg.Add(1)
		go c.workerLoop(w)
	}
	return c, nil
}

// Name returns the container name.
func (c *Container) Name() string { return c.cfg.Name }

// Served returns the number of completed invocations.
func (c *Container) Served() int64 { return c.served.Load() }

// MemUsed returns the container's resident bytes.
func (c *Container) MemUsed() int64 { return c.usage.used.Load() }

func (c *Container) invoke(ctx context.Context, req *wfbench.Request) (*wfbench.Response, error) {
	// Enforce the docker memory limit before admitting the request.
	// (Check-then-act: concurrent admissions may briefly overshoot,
	// like real page allocation racing the OOM killer.)
	if c.cfg.MemLimit > 0 && c.usage.used.Load()+req.MemBytes > c.cfg.MemLimit {
		return &wfbench.Response{Name: req.Name, Error: ErrOOM.Error()},
			fmt.Errorf("%w: container %s: %d resident + %d requested > limit %d",
				ErrOOM, c.cfg.Name, c.usage.used.Load(), req.MemBytes, c.cfg.MemLimit)
	}
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	wk := &work{req: req, respCh: make(chan workResult, 1)}
	select {
	case c.queue <- wk:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.stopCh:
		return nil, errors.New("container: stopped")
	}
	select {
	case res := <-wk.respCh:
		return res.resp, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *Container) workerLoop(w *wfbench.Worker) {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopCh:
			w.Close()
			return
		case wk := <-c.queue:
			resp, err := w.Execute(context.Background(), wk.req)
			if resp != nil {
				resp.Pod = c.cfg.Name
			}
			c.served.Add(1)
			wk.respCh <- workResult{resp: resp, err: err}
		}
	}
}

func (c *Container) stop() {
	c.once.Do(func() {
		close(c.stopCh)
		go func() {
			c.wg.Wait()
			c.usage.AddMem(-c.baseMem)
			c.usage.AddBusy(-c.rt.opts.PodOverheadCPU)
			c.res.Release()
		}()
	})
}
