package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"wfserverless/internal/health"
	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

// HealthConfig parameterizes the straggler campaign: one workflow run
// twice per scheduling mode against a latency-injecting endpoint —
// once with the run-health plane off (the tail is simply waited out)
// and once with straggler detection plus speculative retry — with the
// durable journal and memo cache on in both runs so the campaign also
// proves speculation never double-records a task.
type HealthConfig struct {
	// Recipe / NumTasks / Seed pick the workflow (defaults: blast, 24, 1).
	Recipe   string
	NumTasks int
	Seed     int64

	// TimeScale compresses nominal durations (default 0.005).
	TimeScale float64
	// Workers sizes the WfBench service pool (default 16).
	Workers int

	// Latency is the injected wall-clock delay; each distinct task name
	// is delayed at most once (LatencyOnce), so a speculative backup
	// lands on the fast path — the bad-placement straggler model.
	// Default 1s.
	Latency time.Duration
	// LatencyAfter passes the first N requests undelayed so the
	// endpoint's latency baseline forms before the tail appears
	// (default 6).
	LatencyAfter int

	// StragglerFactor and MinSamples configure detection (defaults 3
	// and 4, see wfm.HealthOptions).
	StragglerFactor float64
	MinSamples      int

	// Manager knobs (nominal seconds); zero values use the same
	// defaults as the resilience campaign.
	InputWait   float64
	MaxParallel int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Recipe == "" {
		c.Recipe = "blast"
	}
	if c.NumTasks == 0 {
		c.NumTasks = 24
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TimeScale == 0 {
		c.TimeScale = 0.005
	}
	if c.Workers == 0 {
		c.Workers = 16
	}
	if c.Latency == 0 {
		c.Latency = time.Second
	}
	if c.LatencyAfter == 0 {
		c.LatencyAfter = 6
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = 3
	}
	if c.MinSamples == 0 {
		c.MinSamples = 4
	}
	if c.InputWait == 0 {
		c.InputWait = 30
	}
	if c.MaxParallel == 0 {
		c.MaxParallel = 512
	}
	return c
}

// HealthMeasurement records one scheduling mode's detection-off /
// detection-on pair.
type HealthMeasurement struct {
	Scheduling string
	Workflow   string
	Tasks      int

	// BaselineWall is the detection-off run (the tail waited out);
	// HealthWall the run with straggler detection + speculative retry.
	BaselineWall   time.Duration
	HealthWall     time.Duration
	ImprovementPct float64

	// Injected is the delayed-task ground truth from the health run's
	// injector; Flagged what the watchdog caught. A passing campaign
	// has Flagged ⊇ Injected.
	Injected []string
	Flagged  []string

	SpeculativeRetries int64
	SpeculativeWins    int64

	// Journal accounting for the health run: terminal records must
	// equal tasks (+header/tail) even though speculation raced
	// duplicate attempts.
	JournalCompleted int
	TerminalRecords  int

	// Endpoints is the health run's per-endpoint baseline table.
	Endpoints []health.EndpointStats
}

// Missing returns the injected task names the watchdog failed to flag.
func (m *HealthMeasurement) Missing() []string {
	flagged := map[string]bool{}
	for _, f := range m.Flagged {
		flagged[f] = true
	}
	var missing []string
	for _, n := range m.Injected {
		if !flagged[n] {
			missing = append(missing, n)
		}
	}
	return missing
}

// HealthCampaign runs the straggler experiment in both scheduling
// modes. Each run gets a fresh drive, service, injector (same seed and
// profile), journal, and memo cache, so the detection-off and
// detection-on runs face statistically identical adversity.
func HealthCampaign(ctx context.Context, cfg HealthConfig) ([]HealthMeasurement, error) {
	cfg = cfg.withDefaults()
	base, err := wfgen.Generate(wfgen.Spec{Recipe: cfg.Recipe, NumTasks: cfg.NumTasks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var out []HealthMeasurement
	for _, mode := range []wfm.Scheduling{wfm.SchedulePhases, wfm.ScheduleDependency} {
		m, err := healthRun(ctx, cfg, base, mode)
		if err != nil {
			return out, err
		}
		out = append(out, *m)
	}
	return out, nil
}

// healthCell executes one run; detect switches the health plane on.
// It returns the run result, the injector (for DelayedNames), and the
// journal directory for post-mortem accounting.
func healthCell(ctx context.Context, cfg HealthConfig, base *wfformat.Workflow, mode wfm.Scheduling, detect bool) (*wfm.Result, *wfbench.Injector, string, error) {
	drive := sharedfs.NewMem()
	w, inj, stop, err := faultyService(base, wfbench.Config{Drive: drive, TimeScale: cfg.TimeScale}, cfg.Workers, wfbench.FaultProfile{
		LatencyRate:  1,
		Latency:      cfg.Latency,
		LatencyAfter: cfg.LatencyAfter,
		LatencyOnce:  true,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, nil, "", err
	}
	defer stop()

	dir, err := os.MkdirTemp("", "wfm-health-")
	if err != nil {
		return nil, nil, "", err
	}
	jdir := filepath.Join(dir, "journal")
	j, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return nil, nil, "", err
	}
	defer j.Close()
	cache, err := memo.Open(filepath.Join(dir, "memo.cache"))
	if err != nil {
		return nil, nil, "", err
	}
	defer cache.Close()

	opts := wfm.Options{
		Drive:       drive,
		TimeScale:   cfg.TimeScale,
		PhaseDelay:  1,
		InputWait:   cfg.InputWait,
		MaxParallel: cfg.MaxParallel,
		Scheduling:  mode,
		Journal:     j,
		Memoize:     cache,
	}
	if detect {
		opts.Health = &wfm.HealthOptions{
			StragglerFactor:  cfg.StragglerFactor,
			MinSamples:       cfg.MinSamples,
			SpeculativeRetry: true,
		}
	}
	mgr, err := wfm.New(opts)
	if err != nil {
		return nil, nil, "", err
	}
	res, err := mgr.Run(ctx, w)
	if err != nil {
		return nil, nil, "", fmt.Errorf("experiments: health %s (%s, detect=%v): %w", base.Name, mode, detect, err)
	}
	return res, inj, jdir, nil
}

func healthRun(ctx context.Context, cfg HealthConfig, base *wfformat.Workflow, mode wfm.Scheduling) (*HealthMeasurement, error) {
	baseRes, _, offDir, err := healthCell(ctx, cfg, base, mode, false)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Dir(offDir))
	healthRes, inj, onDir, err := healthCell(ctx, cfg, base, mode, true)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Dir(onDir))

	m := &HealthMeasurement{
		Scheduling:   mode.String(),
		Workflow:     healthRes.Workflow,
		Tasks:        base.Len(),
		BaselineWall: baseRes.Wall,
		HealthWall:   healthRes.Wall,
		Injected:     inj.DelayedNames(),
	}
	if baseRes.Wall > 0 {
		m.ImprovementPct = (1 - float64(healthRes.Wall)/float64(baseRes.Wall)) * 100
	}
	if h := healthRes.Health; h != nil {
		for _, s := range h.Stragglers {
			m.Flagged = append(m.Flagged, s.Task)
		}
		m.SpeculativeRetries = h.SpeculativeRetries
		m.SpeculativeWins = h.SpeculativeWins
		m.Endpoints = h.Endpoints
	}
	sum, err := wfm.ReadRunJournal(onDir)
	if err != nil {
		return nil, err
	}
	m.JournalCompleted = sum.CompletedTasks
	m.TerminalRecords = sum.EventCounts["task-completed"] + sum.EventCounts["task-memoized"]
	return m, nil
}

// WriteHealthTable renders the campaign as an aligned table.
func WriteHealthTable(w io.Writer, ms []HealthMeasurement) error {
	if _, err := fmt.Fprintf(w, "%-12s %-22s %6s %12s %12s %8s %9s %8s %6s %8s\n",
		"scheduling", "workflow", "tasks", "baseWall", "healthWall", "improve", "injected", "flagged", "spec", "missing"); err != nil {
		return err
	}
	for i := range ms {
		m := &ms[i]
		if _, err := fmt.Fprintf(w, "%-12s %-22s %6d %12v %12v %7.1f%% %9d %8d %6d %8d\n",
			m.Scheduling, m.Workflow, m.Tasks,
			m.BaselineWall.Round(time.Millisecond), m.HealthWall.Round(time.Millisecond),
			m.ImprovementPct, len(m.Injected), len(m.Flagged), m.SpeculativeRetries, len(m.Missing())); err != nil {
			return err
		}
	}
	return nil
}
