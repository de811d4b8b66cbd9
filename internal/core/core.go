// Package core is the top-level API of the framework the paper proposes
// (Figure 1): it assembles the four components — the WfCommons-derived
// workflow generator, the translators, the serverless platform, and the
// serverless workflow manager — into a Session against which workflows
// are generated, translated, executed, and measured. The bare-metal
// local-container baseline is the same platform configured differently:
// a service held at a fixed scale with no cold start.
//
// A Session keeps its platform warm across runs, which is what the
// examples and long-running studies want; the experiments package builds
// one fresh Session per measurement so every Table/Figure cell starts
// from a cold, empty cluster exactly as the paper's campaigns do.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/metrics"
	"wfserverless/internal/obs"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

// Platform kinds: the labels RunHybrid's pick chooses between. Both are
// provisioned the same way.
const (
	KindKnative = "knative"
	KindLocal   = "local"
)

// PlatformConfig provisions one execution platform inside a session: a
// serverless platform serving one "wfbench" service.
type PlatformConfig struct {
	// Kind is KindKnative or KindLocal.
	Kind string
	// Workers per pod.
	Workers int
	// PM keeps WfBench ballast between invocations (--vm-keep).
	PM bool

	CPURequestPerWorker float64
	MemRequestPerWorker int64
	// MemLimit is each pod's hard memory limit; 0 means none.
	MemLimit        int64
	MinScale        int
	MaxScale        int
	ColdStart       float64 // nominal seconds
	AutoscalePeriod float64
	StableWindow    float64
	InstantScaleUp  bool

	PodOverheadMem    int64
	WorkerOverheadMem int64
	PodOverheadCPU    float64
}

// SessionConfig assembles a Session.
type SessionConfig struct {
	// Cluster is the compute substrate; nil provisions the paper's
	// two-node testbed.
	Cluster *cluster.Cluster
	// Drive is the shared drive; nil provisions an in-memory one.
	Drive sharedfs.Drive
	// TimeScale compresses all nominal durations; zero means 1.
	TimeScale float64
	// Engine overrides the WfBench stress engine (nil: SimEngine; use
	// wfbench.BurnEngine for real CPU burn).
	Engine wfbench.Engine

	// Platform is the primary execution platform.
	Platform PlatformConfig
	// Secondary optionally provisions a second platform for hybrid
	// executions (the paper's future-work direction of mapping
	// sub-workflows to different paradigms).
	Secondary *PlatformConfig

	// Manager is the workflow manager's options template. Every field is
	// the caller's, as wfm.Options documents it, except the three the
	// session shares with its platforms and so sets itself: Drive,
	// TimeScale and Tracer (above and below). Manager.InputWait is also
	// how long the platforms' WfBench workers wait for input files.
	Manager wfm.Options

	// SampleInterval is the telemetry period in nominal seconds; zero
	// defaults to 1 (the paper's 1 Hz PCP sampling).
	SampleInterval float64

	// Tracer records spans across all three layers of the request path
	// — workflow manager, serverless platform, and WfBench — into one
	// trace per sampled run. Nil disables tracing.
	Tracer *obs.Tracer
}

// platformHandle is one provisioned platform and where it listens.
type platformHandle struct {
	*serverless.Platform
	kind string
	url  string
}

// Session is a live framework instance.
type Session struct {
	cfg     SessionConfig
	clus    *cluster.Cluster
	drive   sharedfs.Drive
	manager *wfm.Manager
	sampler *metrics.Sampler

	primary   *platformHandle
	secondary *platformHandle

	sampling bool
	closed   bool
}

// NewSession provisions the platforms and the workflow manager. Close
// must be called to release them.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.TimeScale < 0 {
		return nil, errors.New("core: negative TimeScale")
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = 1
	}
	s := &Session{cfg: cfg}
	s.clus = cfg.Cluster
	if s.clus == nil {
		s.clus = cluster.PaperTestbed()
	}
	s.drive = cfg.Drive
	if s.drive == nil {
		s.drive = sharedfs.NewMem()
	}

	var err error
	s.primary, err = s.provision(cfg.Platform)
	if err != nil {
		return nil, err
	}
	if cfg.Secondary != nil {
		s.secondary, err = s.provision(*cfg.Secondary)
		if err != nil {
			s.primary.Stop()
			return nil, err
		}
	}

	opts := cfg.Manager
	opts.Drive, opts.TimeScale, opts.Tracer = s.drive, cfg.TimeScale, cfg.Tracer
	s.manager, err = wfm.New(opts)
	if err != nil {
		s.Close()
		return nil, err
	}

	s.sampler = metrics.NewSampler(time.Duration(cfg.SampleInterval * cfg.TimeScale * float64(time.Second)))
	s.registerGauges()
	return s, nil
}

func (s *Session) provision(pc PlatformConfig) (*platformHandle, error) {
	if pc.Kind != KindKnative && pc.Kind != KindLocal {
		return nil, fmt.Errorf("core: unknown platform kind %q", pc.Kind)
	}
	p, err := serverless.New(serverless.Options{
		Cluster:           s.clus,
		Drive:             s.drive,
		TimeScale:         s.cfg.TimeScale,
		Engine:            s.cfg.Engine,
		ColdStart:         pc.ColdStart,
		AutoscalePeriod:   pc.AutoscalePeriod,
		StableWindow:      pc.StableWindow,
		PodOverheadMem:    pc.PodOverheadMem,
		WorkerOverheadMem: pc.WorkerOverheadMem,
		PodOverheadCPU:    pc.PodOverheadCPU,
		InputWait:         s.cfg.Manager.InputWait,
		InstantScaleUp:    pc.InstantScaleUp,
		Tracer:            s.cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	url, err := p.Start()
	if err != nil {
		return nil, err
	}
	if err := p.Apply(serverless.ServiceConfig{
		Name:                "wfbench",
		Workers:             pc.Workers,
		CPURequestPerWorker: pc.CPURequestPerWorker,
		MemRequestPerWorker: pc.MemRequestPerWorker,
		MemLimit:            pc.MemLimit,
		MinScale:            pc.MinScale,
		MaxScale:            pc.MaxScale,
		KeepMem:             pc.PM,
	}); err != nil {
		p.Stop()
		return nil, err
	}
	return &platformHandle{Platform: p, kind: pc.Kind, url: url}, nil
}

func (s *Session) registerGauges() {
	s.sampler.Register(metrics.MetricCPUUser, func() float64 { return s.clus.Snapshot().BusyCores })
	s.sampler.Register(metrics.MetricCPUReserved, func() float64 { return s.clus.Snapshot().ReservedCores })
	s.sampler.Register("cpu.usage.cores", func() float64 {
		u := s.clus.Snapshot()
		if u.BusyCores > u.ReservedCores {
			return u.BusyCores
		}
		return u.ReservedCores
	})
	s.sampler.Register(metrics.MetricMemUsed, func() float64 { return float64(s.clus.Snapshot().UsedMem) })
	s.sampler.Register(metrics.MetricMemReserved, func() float64 { return float64(s.clus.Snapshot().ReservedMem) })
	s.sampler.Register(metrics.MetricPower, func() float64 { return s.clus.Snapshot().PowerWatts })
	s.sampler.Register(metrics.MetricQueueDepth, func() float64 { return float64(s.primary.QueueDepth()) })
	s.sampler.Register(metrics.MetricPodsRunning, func() float64 { return float64(s.primary.Pods()) })
}

// Cluster returns the session's substrate.
func (s *Session) Cluster() *cluster.Cluster { return s.clus }

// Drive returns the shared drive.
func (s *Session) Drive() sharedfs.Drive { return s.drive }

// Sampler returns the telemetry sampler.
func (s *Session) Sampler() *metrics.Sampler { return s.sampler }

// URL returns the primary platform's endpoint.
func (s *Session) URL() string { return s.primary.url }

// SecondaryURL returns the hybrid second platform's endpoint, or "".
func (s *Session) SecondaryURL() string {
	if s.secondary == nil {
		return ""
	}
	return s.secondary.url
}

// Platform exposes the primary platform.
func (s *Session) Platform() *serverless.Platform { return s.primary.Platform }

// Secondary exposes the hybrid second platform, or nil.
func (s *Session) Secondary() *serverless.Platform {
	if s.secondary == nil {
		return nil
	}
	return s.secondary.Platform
}

// StartSampling begins telemetry collection; call before Run for
// measured executions.
func (s *Session) StartSampling() error {
	if s.sampling {
		return errors.New("core: sampling already started")
	}
	s.sampling = true
	return s.sampler.Start()
}

// StopSampling halts telemetry.
func (s *Session) StopSampling() {
	if s.sampling {
		s.sampler.Stop()
		s.sampling = false
	}
}

// GenerateWorkflow builds a workflow instance from a recipe.
func (s *Session) GenerateWorkflow(recipe string, numTasks int, seed int64) (*wfformat.Workflow, error) {
	return wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: numTasks, Seed: seed})
}

// Translate annotates the workflow for the primary platform.
func (s *Session) Translate(w *wfformat.Workflow) (*wfformat.Workflow, error) {
	return s.primary.translate(w)
}

// translate points every task at the handle's "wfbench" service.
func (h *platformHandle) translate(w *wfformat.Workflow) (*wfformat.Workflow, error) {
	return translator.Knative(w, translator.KnativeOptions{IngressURL: h.url, Workdir: "shared"})
}

// Run translates and executes the workflow on the primary platform.
func (s *Session) Run(ctx context.Context, w *wfformat.Workflow) (*wfm.Result, error) {
	if s.closed {
		return nil, errors.New("core: session closed")
	}
	tw, err := s.Translate(w)
	if err != nil {
		return nil, err
	}
	return s.manager.Run(ctx, tw)
}

// RunRecipe generates, translates, and executes in one call — the
// quickstart path.
func (s *Session) RunRecipe(ctx context.Context, recipe string, numTasks int, seed int64) (*wfm.Result, error) {
	w, err := s.GenerateWorkflow(recipe, numTasks, seed)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, w)
}

// RunHybrid executes the workflow with a per-task platform choice: pick
// returns KindKnative or KindLocal for each task. This implements the
// paper's proposed hybrid approach of "leveraging a combination of both
// computational paradigms ... applied strategically to different steps
// within the workflows". The session must have a Secondary platform of
// the other kind.
func (s *Session) RunHybrid(ctx context.Context, w *wfformat.Workflow, pick func(*wfformat.Task) string) (*wfm.Result, error) {
	if s.closed {
		return nil, errors.New("core: session closed")
	}
	if s.secondary == nil {
		return nil, errors.New("core: RunHybrid needs a Secondary platform")
	}
	// Translate for both platforms, then give each task the api_url of
	// the one picked for it.
	out, err := s.primary.translate(w)
	if err != nil {
		return nil, err
	}
	other, err := s.secondary.translate(w)
	if err != nil {
		return nil, err
	}
	for _, name := range out.TaskNames() {
		switch kind := pick(out.Tasks[name]); kind {
		case s.primary.kind:
		case s.secondary.kind:
			out.Tasks[name].Command.APIURL = other.Tasks[name].Command.APIURL
		default:
			return nil, fmt.Errorf("core: pick(%s) returned unknown kind %q", name, kind)
		}
	}
	return s.manager.Run(ctx, out)
}

// Close releases all platforms. Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.StopSampling()
	if s.secondary != nil {
		s.secondary.Stop()
	}
	if s.primary != nil {
		s.primary.Stop()
	}
}
