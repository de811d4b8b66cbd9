package experiments

import (
	"context"
	"fmt"
	"time"

	"wfserverless/internal/core"
	"wfserverless/internal/metrics"
	"wfserverless/internal/obs"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// Tunables are the shared experiment parameters. All durations are
// nominal paper seconds; TimeScale compresses them for fast runs.
type Tunables struct {
	// TimeScale converts nominal seconds to wall seconds; the default
	// 0.02 keeps modeled durations well above wall-clock scheduling
	// noise while a 200-second campaign still runs in four seconds.
	TimeScale float64

	// Serverless platform knobs.
	ColdStart       float64 // pod startup latency
	AutoscalePeriod float64 // autoscaler tick
	StableWindow    float64 // idle window before pod reclaim
	// CPURequestPerWorker / MemRequestPerWorker size Knative pod
	// reservations (requests scale with containerConcurrency).
	CPURequestPerWorker float64
	MemRequestPerWorker int64

	// Local-container fleet: LCContainers x LCCPUsPerContainer cores are
	// reserved up front (the docker --cpus=2 of the paper's AD), each
	// with a hard memory limit when the paradigm declares requirements.
	LCContainers       int
	LCCPUsPerContainer float64
	LCMemLimit         int64

	// Shared per-process overheads.
	PodOverheadMem    int64
	WorkerOverheadMem int64
	PodOverheadCPU    float64

	// Manager is the workflow manager's options template, handed to the
	// session as is (core.SessionConfig.Manager says which three fields
	// the session sets itself).
	Manager wfm.Options

	// SampleInterval is the telemetry period (the paper's pmdumptext
	// -t 1sec).
	SampleInterval float64

	// InstantScaleUp is the autoscaler-ramp ablation knob: skip the
	// KPA-style doubling and create every needed pod in one tick.
	InstantScaleUp bool

	// Tracer, when set, records spans across the manager, platform, and
	// WfBench layers; the resulting trace rides on Measurement.Trace.
	Tracer *obs.Tracer
}

// DefaultTunables returns the parameters used throughout EXPERIMENTS.md.
func DefaultTunables() Tunables {
	const mb = int64(1) << 20
	return Tunables{
		TimeScale:           0.02,
		ColdStart:           2,
		AutoscalePeriod:     1,
		StableWindow:        6,
		CPURequestPerWorker: 0.5,
		MemRequestPerWorker: 64 * mb,
		LCContainers:        48,
		LCCPUsPerContainer:  2,
		LCMemLimit:          3 << 30,
		PodOverheadMem:      80 * mb,
		WorkerOverheadMem:   64 * mb,
		PodOverheadCPU:      0.05,
		Manager:             wfm.Options{PhaseDelay: 1, InputWait: 30, MaxParallel: 512},
		SampleInterval:      1,
	}
}

// SessionConfig maps a Table II paradigm plus the tunables onto a core
// session configuration. The coarse-grained paradigms provision one
// process that reserves (nearly) a whole machine, with no cold start and
// no scaling, matching Section V-C. A local-container paradigm is the
// same platform held at fixed scale: one pod per container, started
// before the run, with no cold start.
func SessionConfig(spec Spec, tn Tunables) (core.SessionConfig, error) {
	pc := core.PlatformConfig{
		Workers:           spec.Workers,
		PM:                spec.PM,
		PodOverheadMem:    tn.PodOverheadMem,
		WorkerOverheadMem: tn.WorkerOverheadMem,
		PodOverheadCPU:    tn.PodOverheadCPU,
	}
	// The paper-testbed node a coarse process monopolizes.
	const (
		coarseCores = 46
		coarseMem   = int64(156) << 30
	)
	switch spec.Kind {
	case KindKnative:
		pc.Kind = core.KindKnative
		pc.CPURequestPerWorker = tn.CPURequestPerWorker
		pc.MemRequestPerWorker = tn.MemRequestPerWorker
		pc.ColdStart = tn.ColdStart
		pc.AutoscalePeriod = tn.AutoscalePeriod
		pc.StableWindow = tn.StableWindow
		pc.InstantScaleUp = tn.InstantScaleUp
		if spec.Coarse {
			pc.MinScale, pc.MaxScale = 1, 1
			pc.ColdStart = 0
			pc.CPURequestPerWorker = coarseCores / float64(spec.Workers)
			pc.MemRequestPerWorker = coarseMem / int64(spec.Workers)
		}
	case KindLocal:
		pc.Kind = core.KindLocal
		containers, cpus, memLimit := max(tn.LCContainers, 1), tn.LCCPUsPerContainer, tn.LCMemLimit
		if spec.Coarse {
			// One unique 1000-worker container reserving a whole
			// machine, mirroring the coarse serverless scenario.
			containers, cpus, memLimit = 1, coarseCores, coarseMem
		}
		if !spec.CR {
			cpus, memLimit = 0, 0
		}
		pc.MinScale, pc.MaxScale = containers, containers
		pc.CPURequestPerWorker = cpus / float64(spec.Workers)
		pc.MemLimit = memLimit
	default:
		return core.SessionConfig{}, fmt.Errorf("experiments: unknown platform kind %q", spec.Kind)
	}
	return core.SessionConfig{
		TimeScale:      tn.TimeScale,
		Platform:       pc,
		Manager:        tn.Manager,
		SampleInterval: tn.SampleInterval,
		Tracer:         tn.Tracer,
	}, nil
}

// Measurement is the paper's per-experiment record: execution time,
// power, CPU, and memory usage, plus platform counters that explain the
// behaviour (cold starts, queueing, scale stalls).
type Measurement struct {
	Paradigm Paradigm
	Workflow string
	Recipe   string
	Tasks    int
	Group    int // paper behavioural group (1 or 2), 0 if unknown

	// MakespanS is end-to-end execution time in nominal seconds.
	MakespanS float64
	// MeanPowerW / EnergyJ from the RAPL-style model.
	MeanPowerW float64
	EnergyJ    float64
	// MeanCPUCores is the paper's "CPU usage": time-averaged
	// max(provisioned, busy) cores.
	MeanCPUCores float64
	MaxCPUCores  float64
	// MeanBusyCores is the raw kernel.all.cpu.user average.
	MeanBusyCores float64
	// MeanMemGB / MaxMemGB are resident memory (mem.util.used).
	MeanMemGB float64
	MaxMemGB  float64

	ColdStarts  int64
	Requests    int64
	Failures    int64
	ScaleStalls int64
	Wall        time.Duration

	// Trace carries the run's spans when Tunables.Tracer was set; nil
	// otherwise.
	Trace *wfm.Trace `json:",omitempty"`
}

// gb converts bytes to GiB.
func gb(b float64) float64 { return b / float64(int64(1)<<30) }

// RunWorkflow executes one experiment: the workflow under the paradigm,
// on a fresh paper-testbed cluster, fully sampled.
func RunWorkflow(ctx context.Context, spec Spec, w *wfformat.Workflow, tn Tunables) (*Measurement, error) {
	if tn.TimeScale <= 0 {
		return nil, fmt.Errorf("experiments: TimeScale must be positive")
	}
	cfg, err := SessionConfig(spec, tn)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	m := &Measurement{
		Paradigm: spec.ID,
		Workflow: w.Name,
		Tasks:    w.Len(),
	}
	if err := sess.StartSampling(); err != nil {
		return nil, err
	}
	res, runErr := sess.Run(ctx, w)
	sess.StopSampling()

	p := sess.Platform()
	m.ColdStarts, m.Requests, m.Failures, m.ScaleStalls = p.ColdStarts(), p.Requests(), p.Failures(), p.ScaleStalls()
	if runErr != nil {
		return m, fmt.Errorf("experiments: %s on %s: %w", w.Name, spec.ID, runErr)
	}

	sampler := sess.Sampler()
	m.MakespanS = res.Makespan
	m.Wall = res.Wall
	m.MeanPowerW = sampler.MeanOf(metrics.MetricPower)
	m.EnergyJ = sampler.SeriesFor(metrics.MetricPower).Integral() / tn.TimeScale
	m.MeanCPUCores = sampler.MeanOf("cpu.usage.cores")
	m.MaxCPUCores = sampler.MaxOf("cpu.usage.cores")
	m.MeanBusyCores = sampler.MeanOf(metrics.MetricCPUUser)
	m.MeanMemGB = gb(sampler.MeanOf(metrics.MetricMemUsed))
	m.MaxMemGB = gb(sampler.MaxOf(metrics.MetricMemUsed))
	if tn.Tracer != nil {
		m.Trace = wfm.TraceOf(res)
	}
	return m, nil
}
