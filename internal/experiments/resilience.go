package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"wfserverless/internal/memo"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

// ResilienceConfig parameterizes the flaky-endpoint experiment: one
// workflow executed against a WfBench service wrapped in a fault
// injector, with the workflow manager's resilience layer (retries,
// jittered backoff, per-task timeouts, circuit breaker) switched on.
type ResilienceConfig struct {
	// Recipe / NumTasks / Seed pick the workflow (defaults: blast, 60, 1).
	Recipe   string
	NumTasks int
	Seed     int64

	// TimeScale compresses nominal durations (default 0.02, as in
	// DefaultTunables).
	TimeScale float64

	// Profile is the fault mix injected in front of the service.
	Profile wfbench.FaultProfile

	// Workers sizes the WfBench service pool (default 16).
	Workers int

	// Manager knobs (nominal seconds); zero values fall back to
	// retry-friendly defaults documented in EXPERIMENTS.md.
	Retries         int
	RetryBackoff    float64
	RetryBackoffMax float64
	TaskTimeout     float64
	InputWait       float64
	MaxParallel     int
	Breaker         wfm.BreakerOptions
	// Batching runs the experiment with the manager's batched
	// invocation pipeline: the injector then faults individual
	// sub-tasks inside each batch (per-frame 429/500/hang draws), so
	// the suite proves a faulted sub-task retries alone while its
	// batch-mates complete.
	Batching wfm.BatchOptions

	// TraceSample enables span collection for the runs: the fraction of
	// workflow roots recorded (1 records everything, 0 disables). The
	// collected trace rides on each measurement for the caller to export.
	TraceSample float64

	// Memoize adds a warm re-run to each cell: the first (faulted) run
	// populates a content-addressed memo cache, then the same workflow
	// runs again through the same injector. Every task should be served
	// from the cache — a memoized re-run is immune to endpoint
	// flakiness because it never touches the endpoint.
	Memoize bool
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.Recipe == "" {
		c.Recipe = "blast"
	}
	if c.NumTasks == 0 {
		c.NumTasks = 60
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TimeScale == 0 {
		c.TimeScale = 0.02
	}
	if c.Workers == 0 {
		c.Workers = 16
	}
	if c.Retries == 0 {
		c.Retries = 6
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 0.5
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = 8
	}
	if c.InputWait == 0 {
		c.InputWait = 30
	}
	if c.MaxParallel == 0 {
		c.MaxParallel = 512
	}
	return c
}

// DefaultResilienceBreaker returns breaker settings for the
// flaky-endpoint experiment: armed, but judging no fewer outcomes than
// the widest level the campaign releases at once (Blast-30: 28 tasks),
// at a threshold high enough that a noisy (rather than dead) endpoint
// does not trip it, so runs complete through retries. Injected faults
// are answered at once while real work takes its time, so a smaller
// window fills with a level's first faults before its first success.
func DefaultResilienceBreaker() wfm.BreakerOptions {
	return wfm.BreakerOptions{Enabled: true, Window: 64, FailureThreshold: 0.9, MinSamples: 40}
}

// ResilienceMeasurement records one scheduling mode's run through the
// fault injector.
type ResilienceMeasurement struct {
	Scheduling string
	Workflow   string
	Tasks      int
	// Batched marks runs that went through the batching dispatcher.
	Batched bool

	MakespanS float64
	Wall      time.Duration

	// Attempts sums invocation attempts over all tasks (TaskAttempts
	// has them per task); Retries is the surplus over one attempt per
	// task.
	Attempts     int
	TaskAttempts map[string]int
	Retries      int
	Failed       int
	Warnings     int

	// Faults is what the injector actually did to the run.
	Faults wfbench.FaultStats
	// Breakers are the circuit transitions observed, in time order.
	Breakers []wfm.BreakerTransition
	// Trace carries the run's spans when TraceSample was set; nil
	// otherwise.
	Trace *wfm.Trace

	// Memoize-run fields (Config.Memoize only): hits/misses of the warm
	// re-run and its wall time. A healthy cell has MemoHits == Tasks and
	// MemoMisses == 0 — the re-run survives the injector untouched.
	MemoHits     int
	MemoMisses   int
	MemoWarmWall time.Duration
}

// Resilience runs the flaky-endpoint experiment in both scheduling
// modes: each mode gets a fresh drive, service, and injector (same
// seed, same fault mix), and the injector keys each fault by task and
// attempt, so the two runs face the identical adversary, task by task.
func Resilience(ctx context.Context, cfg ResilienceConfig) ([]ResilienceMeasurement, error) {
	cfg = cfg.withDefaults()
	base, err := wfgen.Generate(wfgen.Spec{Recipe: cfg.Recipe, NumTasks: cfg.NumTasks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	var out []ResilienceMeasurement
	for _, mode := range []wfm.Scheduling{wfm.SchedulePhases, wfm.ScheduleDependency} {
		m, err := resilienceRun(ctx, cfg, base, mode)
		if err != nil {
			return out, err
		}
		out = append(out, *m)
	}
	return out, nil
}

// faultyService stands the standalone WfBench service up behind a fault
// injector on a loopback port and translates base for it; stop releases
// the port and the workers.
func faultyService(base *wfformat.Workflow, cfg wfbench.Config, workers int, profile wfbench.FaultProfile) (w *wfformat.Workflow, inj *wfbench.Injector, stop func(), err error) {
	bench, err := wfbench.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	svc, err := wfbench.NewService(bench, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	if inj, err = wfbench.NewInjector(svc, profile); err != nil {
		return nil, nil, nil, err
	}
	srv, err := wfbench.ListenLoopback(wfbench.NewEndpoint(inj))
	if err != nil {
		return nil, nil, nil, err
	}
	w, err = translator.LocalContainer(base.Clone(), translator.LocalContainerOptions{BaseURL: srv.URL(), Workdir: "shared"})
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	return w, inj, func() { srv.Close(); svc.Close() }, nil
}

func resilienceRun(ctx context.Context, cfg ResilienceConfig, base *wfformat.Workflow, mode wfm.Scheduling) (*ResilienceMeasurement, error) {
	drive := sharedfs.NewMem()
	var tracer *obs.Tracer
	if cfg.TraceSample > 0 {
		tracer = obs.NewTracer(obs.Options{SampleRatio: cfg.TraceSample})
	}
	w, inj, stop, err := faultyService(base, wfbench.Config{Drive: drive, TimeScale: cfg.TimeScale, Tracer: tracer}, cfg.Workers, cfg.Profile)
	if err != nil {
		return nil, err
	}
	defer stop()

	opts := wfm.Options{
		Drive:           drive,
		TimeScale:       cfg.TimeScale,
		PhaseDelay:      1,
		InputWait:       cfg.InputWait,
		MaxParallel:     cfg.MaxParallel,
		Scheduling:      mode,
		Retries:         cfg.Retries,
		RetryBackoff:    cfg.RetryBackoff,
		RetryBackoffMax: cfg.RetryBackoffMax,
		TaskTimeout:     cfg.TaskTimeout,
		Breaker:         cfg.Breaker,
		Batching:        cfg.Batching,
		Tracer:          tracer,
	}
	var cachePath string
	if cfg.Memoize {
		dir, err := os.MkdirTemp("", "wfm-resilience-memo-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cachePath = filepath.Join(dir, "memo.cache")
		c, err := memo.Open(cachePath)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		opts.Memoize = c
	}
	mgr, err := wfm.New(opts)
	if err != nil {
		return nil, err
	}

	res, runErr := mgr.Run(ctx, w)
	if runErr != nil {
		return nil, fmt.Errorf("experiments: resilience %s (%s): %w", base.Name, mode, runErr)
	}

	m := &ResilienceMeasurement{
		Scheduling:   mode.String(),
		Workflow:     res.Workflow,
		Tasks:        w.Len(),
		Batched:      cfg.Batching.Enabled,
		MakespanS:    res.Makespan,
		Wall:         res.Wall,
		Failed:       len(res.Failed),
		Warnings:     len(res.Warnings),
		Faults:       inj.Stats(),
		Breakers:     append([]wfm.BreakerTransition(nil), res.Breakers...),
		TaskAttempts: make(map[string]int, len(res.Tasks)),
	}
	for name, tr := range res.Tasks {
		if name == wfm.HeaderName || name == wfm.TailName {
			continue
		}
		m.Attempts += tr.Attempts
		m.TaskAttempts[name] = tr.Attempts
	}
	m.Retries = m.Attempts - m.Tasks
	if tracer != nil {
		m.Trace = wfm.TraceOf(res)
	}

	// Warm re-run: same workflow, same injector, cache reopened from
	// disk. Every invocation the first run survived is now a cache hit
	// the injector never sees.
	if cfg.Memoize {
		opts.Memoize.Close()
		c2, err := memo.Open(cachePath)
		if err != nil {
			return nil, err
		}
		defer c2.Close()
		opts.Memoize = c2
		mgr2, err := wfm.New(opts)
		if err != nil {
			return nil, err
		}
		res2, err := mgr2.Run(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: resilience memoized re-run %s (%s): %w", base.Name, mode, err)
		}
		if res2.Memo != nil {
			m.MemoHits = int(res2.Memo.Hits)
			m.MemoMisses = int(res2.Memo.Misses)
		}
		m.MemoWarmWall = res2.Wall
	}
	return m, nil
}

// WriteResilienceTable renders the measurements as an aligned table,
// which the seed alone decides, and then the makespans, which the host
// clock has a say in.
func WriteResilienceTable(w io.Writer, ms []ResilienceMeasurement) error {
	if _, err := fmt.Fprintf(w, "%-12s %-22s %6s %8s %7s %7s %7s %7s %6s %9s\n",
		"scheduling", "workflow", "tasks", "attempts", "retries", "faults", "rejects", "delays", "failed", "breakerEvt"); err != nil {
		return err
	}
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "%-12s %-22s %6d %8d %7d %7d %7d %7d %6d %9d\n",
			m.Scheduling, m.Workflow, m.Tasks,
			m.Attempts, m.Retries, m.Faults.Errors, m.Faults.Rejects, m.Faults.Delays,
			m.Failed, len(m.Breakers)); err != nil {
			return err
		}
	}
	line := "makespan (nominal s):"
	for _, m := range ms {
		line += fmt.Sprintf(" %s %.1f", m.Scheduling, m.MakespanS)
	}
	_, err := fmt.Fprintln(w, line)
	return err
}
