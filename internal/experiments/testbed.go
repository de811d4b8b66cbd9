package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/metrics"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// The fleets behind the Table II paradigms. A Knative pod requests
// knCPUPerWorker cores and knMemPerWorker bytes per worker (requests
// scale with containerConcurrency). The local-container baseline
// reserves lcContainers x lcCPUs cores up front (the docker --cpus=2 of
// the paper's AD), each container under a hard memory limit when the
// paradigm declares requirements. A coarse-grained process monopolizes
// one paper-testbed node.
const (
	knCPUPerWorker = 0.5
	knMemPerWorker = int64(64) << 20
	lcContainers   = 48
	lcCPUs         = 2.0
	lcMemLimit     = int64(3) << 30
	coarseCores    = 46.0
	coarseMem      = int64(156) << 30
)

// sampleInterval is the telemetry period in nominal seconds (the paper's
// pmdumptext -t 1sec).
const sampleInterval = 1

// Configure maps a Table II paradigm onto the platform it runs on: the
// options of a serverless platform and the one "wfbench" service (the
// translator's default) applied to it. The options are tn.Platform with
// the values the platform shares with the manager filled in (TimeScale,
// Tracer, and InputWait = tn.Manager.InputWait); the testbed adds the
// Cluster and Drive. The coarse-grained paradigms are one process that
// reserves (nearly) a whole machine, with no cold start and no scaling,
// matching Section V-C. A local-container paradigm is the same platform
// with its service held at fixed scale: one pod per container, started
// by Apply, with no cold start and no autoscaler knobs.
func Configure(spec Spec, tn Tunables) (serverless.Options, serverless.ServiceConfig, error) {
	opts := tn.Platform
	opts.TimeScale, opts.Tracer, opts.InputWait = tn.TimeScale, tn.Tracer, tn.Manager.InputWait
	svc := serverless.ServiceConfig{Name: "wfbench", Workers: spec.Workers, KeepMem: spec.PM}
	switch spec.Kind {
	case KindKnative:
		svc.CPURequestPerWorker, svc.MemRequestPerWorker = knCPUPerWorker, knMemPerWorker
		if spec.Coarse {
			opts.ColdStart = 0
			svc.MinScale, svc.MaxScale = 1, 1
			svc.CPURequestPerWorker = coarseCores / float64(spec.Workers)
			svc.MemRequestPerWorker = coarseMem / int64(spec.Workers)
		}
	case KindLocal:
		opts.ColdStart, opts.AutoscalePeriod, opts.StableWindow, opts.InstantScaleUp = 0, 0, 0, false
		containers, cpus, memLimit := lcContainers, lcCPUs, lcMemLimit
		if spec.Coarse {
			// One unique 1000-worker container reserving a whole
			// machine, mirroring the coarse serverless scenario.
			containers, cpus, memLimit = 1, coarseCores, coarseMem
		}
		if !spec.CR {
			cpus, memLimit = 0, 0
		}
		svc.MinScale, svc.MaxScale = containers, containers
		svc.CPURequestPerWorker = cpus / float64(spec.Workers)
		svc.MemLimit = memLimit
	default:
		return serverless.Options{}, serverless.ServiceConfig{}, fmt.Errorf("experiments: unknown platform kind %q", spec.Kind)
	}
	return opts, svc, nil
}

// Testbed is the stack one figure cell runs on: a fresh paper-testbed
// cluster, an in-memory shared drive, a started serverless platform with
// the paradigm's service applied, the workflow manager, and the sampler
// that polls eight gauges at the paper's 1 Hz (nominal). Further
// services may be applied to Platform, as a hybrid placement does. Close
// must be called to release it.
type Testbed struct {
	Cluster  *cluster.Cluster
	Drive    sharedfs.Drive
	Platform *serverless.Platform
	Manager  *wfm.Manager
	Sampler  *metrics.Sampler
}

// NewTestbed builds the testbed of a paradigm from Configure's pair and
// the manager template.
func NewTestbed(spec Spec, tn Tunables) (*Testbed, error) {
	if tn.TimeScale <= 0 {
		return nil, errors.New("experiments: TimeScale must be positive")
	}
	opts, svc, err := Configure(spec, tn)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Cluster: cluster.PaperTestbed(), Drive: sharedfs.NewMem()}
	opts.Cluster, opts.Drive = tb.Cluster, tb.Drive
	if tb.Platform, err = serverless.New(opts); err != nil {
		return nil, err
	}
	if _, err := tb.Platform.Start(); err != nil {
		return nil, err
	}
	mgr := tn.Manager
	mgr.Drive, mgr.TimeScale, mgr.Tracer = tb.Drive, tn.TimeScale, tn.Tracer
	if err = tb.Platform.Apply(svc); err == nil {
		tb.Manager, err = wfm.New(mgr)
	}
	if err != nil {
		tb.Platform.Stop()
		return nil, err
	}
	tb.Sampler = metrics.NewSampler(time.Duration(sampleInterval * tn.TimeScale * float64(time.Second)))
	c, p := tb.Cluster, tb.Platform
	tb.Sampler.Register(metrics.MetricCPUUser, func() float64 { return c.Snapshot().BusyCores })
	tb.Sampler.Register(metrics.MetricCPUReserved, func() float64 { return c.Snapshot().ReservedCores })
	tb.Sampler.Register("cpu.usage.cores", func() float64 {
		u := c.Snapshot()
		return max(u.BusyCores, u.ReservedCores)
	})
	tb.Sampler.Register(metrics.MetricMemUsed, func() float64 { return float64(c.Snapshot().UsedMem) })
	tb.Sampler.Register(metrics.MetricMemReserved, func() float64 { return float64(c.Snapshot().ReservedMem) })
	tb.Sampler.Register(metrics.MetricPower, func() float64 { return c.Snapshot().PowerWatts })
	tb.Sampler.Register(metrics.MetricQueueDepth, func() float64 { return float64(p.QueueDepth()) })
	tb.Sampler.Register(metrics.MetricPodsRunning, func() float64 { return float64(p.Pods()) })
	return tb, nil
}

// Run translates the workflow onto the paradigm's service and executes
// it. Runs may overlap and follow one another on one testbed.
func (tb *Testbed) Run(ctx context.Context, w *wfformat.Workflow) (*wfm.Result, error) {
	tw, err := translator.Knative(w, translator.KnativeOptions{IngressURL: tb.Platform.URL(), Workdir: "shared"})
	if err != nil {
		return nil, err
	}
	return tb.Manager.Run(ctx, tw)
}

// Close stops the sampler and the platform. It is idempotent.
func (tb *Testbed) Close() {
	tb.Sampler.Stop()
	tb.Platform.Stop()
}
