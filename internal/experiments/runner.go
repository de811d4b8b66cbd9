package experiments

import (
	"context"
	"fmt"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/obs"
	"wfserverless/internal/serverless"
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

	// Platform is the serverless platform's options template: cold
	// start, autoscaler tick and stable window, the per-process
	// overheads, the InstantScaleUp ablation and the WfBench Engine.
	// Configure says which knobs a paradigm overrides and which fields
	// the testbed sets itself.
	Platform serverless.Options

	// Manager is the workflow manager's options template; the testbed
	// sets its Drive, TimeScale and Tracer.
	Manager wfm.Options

	// Tracer, when set, records spans across the manager, platform, and
	// WfBench layers; the resulting trace rides on Measurement.Trace.
	Tracer *obs.Tracer
}

// DefaultTunables returns the parameters used throughout EXPERIMENTS.md.
func DefaultTunables() Tunables {
	const mb = int64(1) << 20
	return Tunables{
		TimeScale: 0.02,
		Platform: serverless.Options{
			ColdStart:         2,
			AutoscalePeriod:   1,
			StableWindow:      6,
			PodOverheadMem:    80 * mb,
			WorkerOverheadMem: 64 * mb,
			PodOverheadCPU:    0.05,
		},
		Manager: wfm.Options{PhaseDelay: 1, InputWait: 30, MaxParallel: 512},
	}
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

// account fills the power, CPU and memory columns from a window over the
// run. Energy is in nominal joules: the window integrates wall seconds.
func (m *Measurement) account(a cluster.Account, timeScale float64) {
	m.MeanPowerW = a.Mean.PowerWatts
	m.EnergyJ = a.EnergyJ / timeScale
	m.MeanCPUCores, m.MaxCPUCores = a.Mean.CPUCores, a.Max.CPUCores
	m.MeanBusyCores = a.Mean.BusyCores
	m.MeanMemGB, m.MaxMemGB = gb(a.Mean.UsedMem), gb(a.Max.UsedMem)
}

// RunWorkflow executes one experiment: the workflow under the paradigm,
// on a fresh paper-testbed cluster, measured over the run.
func RunWorkflow(ctx context.Context, spec Spec, w *wfformat.Workflow, tn Tunables) (*Measurement, error) {
	tb, err := NewTestbed(spec, tn)
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	m := &Measurement{
		Paradigm: spec.ID,
		Workflow: w.Name,
		Tasks:    w.Len(),
	}
	win := tb.Cluster.Measure()
	res, runErr := tb.Run(ctx, w)
	acct := win.Close()

	p := tb.Platform
	m.ColdStarts, m.Requests, m.Failures, m.ScaleStalls = p.ColdStarts(), p.Requests(), p.Failures(), p.ScaleStalls()
	if runErr != nil {
		return m, fmt.Errorf("experiments: %s on %s: %w", w.Name, spec.ID, runErr)
	}

	m.MakespanS = res.Makespan
	m.Wall = res.Wall
	m.account(acct, tn.TimeScale)
	if tn.Tracer != nil {
		m.Trace = wfm.TraceOf(res)
	}
	return m, nil
}
