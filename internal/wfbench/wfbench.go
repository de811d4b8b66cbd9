// Package wfbench reimplements WfBench — the WfCommons benchmark
// executable the paper containerizes and deploys as a service ("WfBench
// as a Service", Section III-B). A benchmark invocation performs real
// work for one workflow function, respecting its parameters: stressing
// the CPU at a duty cycle (percent-cpu) for an amount of work (cpu-work),
// holding a memory ballast (optionally persistent across invocations,
// the paper's --vm-keep / PM setting), verifying its input files exist on
// the shared drive, and producing its output files there.
//
// The package exposes both the library form (Bench/Worker) used by the
// in-process platforms and the HTTP service form (Service) answering
// POST /wfbench with the same JSON body as the paper's curl examples.
package wfbench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
)

// Request is the body of a WfBench invocation, matching the paper's
// service request structure.
type Request struct {
	Name       string  `json:"name"`
	PercentCPU float64 `json:"percent-cpu"`
	CPUWork    float64 `json:"cpu-work"`
	// Cores is the task's parallelism (the workflow format's "cores"
	// field): the stress spreads across this many cores, dividing the
	// wall time. Zero means 1.
	Cores    int              `json:"cores,omitempty"`
	MemBytes int64            `json:"mem-bytes,omitempty"`
	Out      map[string]int64 `json:"out"`
	Inputs   []string         `json:"inputs"`
	Workdir  string           `json:"workdir,omitempty"`
}

// Validate checks the request parameters.
func (r *Request) Validate() error {
	if r.Name == "" {
		return errors.New("wfbench: request missing name")
	}
	if r.PercentCPU < 0 || r.PercentCPU > 1 {
		return fmt.Errorf("wfbench: %s: percent-cpu %v outside [0,1]", r.Name, r.PercentCPU)
	}
	if r.CPUWork < 0 {
		return fmt.Errorf("wfbench: %s: negative cpu-work", r.Name)
	}
	if r.MemBytes < 0 {
		return fmt.Errorf("wfbench: %s: negative mem-bytes", r.Name)
	}
	if r.Cores < 0 {
		return fmt.Errorf("wfbench: %s: negative cores", r.Name)
	}
	for out, sz := range r.Out {
		if sz < 0 {
			return fmt.Errorf("wfbench: %s: output %q has negative size", r.Name, out)
		}
	}
	return nil
}

// Durations derives the nominal (unscaled, paper-second) busy and wall
// durations of the request. cpu-work of 100 is one second of single-core
// busy work at 100% duty; a lower duty cycle stretches wall time and
// additional cores divide it.
func (r *Request) Durations() (busy, wall float64) {
	busy = r.CPUWork / 100
	duty := r.PercentCPU
	if duty < 0.05 {
		duty = 0.05
	}
	cores := float64(r.CoresOrOne())
	wall = busy / duty / cores
	return busy, wall
}

// CoresOrOne returns the task parallelism, defaulting to 1.
func (r *Request) CoresOrOne() int {
	if r.Cores <= 0 {
		return 1
	}
	return r.Cores
}

// Response reports one completed invocation. Durations are in nominal
// paper seconds.
type Response struct {
	Name        string  `json:"name"`
	OK          bool    `json:"ok"`
	Error       string  `json:"error,omitempty"`
	BusySeconds float64 `json:"busySeconds"`
	WallSeconds float64 `json:"wallSeconds"`
	OutBytes    int64   `json:"outBytes"`
	ColdStart   bool    `json:"coldStart,omitempty"`
	Pod         string  `json:"pod,omitempty"`
}

// Engine performs the CPU stress phase of an invocation.
type Engine interface {
	// Run occupies the CPU at the given duty cycle in [0,1] for the
	// given wall-clock duration (already scaled), honouring ctx
	// cancellation.
	Run(ctx context.Context, wall time.Duration, duty float64) error
}

// SimEngine models the stress phase by sleeping for the wall duration.
// It is deterministic and cheap, and is the engine the experiment
// harness uses; resource telemetry comes from the cluster accountant,
// not from actually heating the host.
type SimEngine struct{}

// Run implements Engine.
func (SimEngine) Run(ctx context.Context, wall time.Duration, duty float64) error {
	if wall <= 0 {
		return ctx.Err()
	}
	// Sub-millisecond stress phases sleep uninterruptibly: a heap timer
	// plus a select per invocation costs more than the simulated work at
	// batched throughput, and 1ms bounds the cancellation latency.
	if wall < time.Millisecond {
		time.Sleep(wall)
		return ctx.Err()
	}
	t := time.NewTimer(wall)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// BurnEngine actually spins the CPU at the duty cycle, slicing time into
// short periods of busy-spin followed by sleep — the same technique the
// Python wfbench uses. Useful for end-to-end realism tests and the
// standalone service.
type BurnEngine struct {
	// Period is the duty-cycle slice; defaults to 5ms.
	Period time.Duration
}

// Run implements Engine.
func (e BurnEngine) Run(ctx context.Context, wall time.Duration, duty float64) error {
	period := e.Period
	if period <= 0 {
		period = 5 * time.Millisecond
	}
	if duty < 0 {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	deadline := time.Now().Add(wall)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		sliceEnd := time.Now().Add(period)
		if sliceEnd.After(deadline) {
			sliceEnd = deadline
		}
		busyUntil := time.Now().Add(time.Duration(float64(sliceEnd.Sub(time.Now())) * duty))
		for time.Now().Before(busyUntil) {
			// spin
		}
		if rest := time.Until(sliceEnd); rest > 0 {
			time.Sleep(rest)
		}
	}
	return nil
}

// Usage receives live resource registrations from running invocations
// as deltas: what an invocation adds it subtracts again when it is done.
// *cluster.Node satisfies it.
type Usage interface {
	AddBusy(cores float64)
	AddMem(bytes int64)
}

// nopUsage discards registrations.
type nopUsage struct{}

func (nopUsage) AddBusy(float64) {}
func (nopUsage) AddMem(int64)    {}

// Config parameterizes a Bench.
type Config struct {
	// Drive is the shared drive for input checks and output writes.
	Drive sharedfs.Drive
	// Engine performs the CPU stress; nil means SimEngine.
	Engine Engine
	// Usage receives busy/memory registrations; nil discards them.
	Usage Usage
	// TimeScale converts nominal paper seconds to wall time. 1.0 runs
	// in real time; the experiments use ~0.005. Zero defaults to 1.0.
	TimeScale float64
	// InputWait bounds how long an invocation polls for missing input
	// files before failing (already scaled). Zero fails immediately.
	InputWait time.Duration
	// KeepMem is the paper's --vm-keep: workers retain their ballast
	// between invocations (persistent memory, PM paradigms).
	KeepMem bool
	// Tracer emits leaf spans for an invocation's phases (input wait,
	// memory ballast, CPU stress, output writes) when the caller
	// propagated a sampled trace context via obs.ContextWithSpan. Nil
	// disables span emission.
	Tracer *obs.Tracer
}

// Bench executes WfBench invocations against a shared drive.
type Bench struct {
	cfg Config
}

// New returns a Bench for the config, applying defaults.
func New(cfg Config) (*Bench, error) {
	if cfg.Drive == nil {
		return nil, errors.New("wfbench: config needs a Drive")
	}
	if cfg.Engine == nil {
		cfg.Engine = SimEngine{}
	}
	if cfg.Usage == nil {
		cfg.Usage = nopUsage{}
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("wfbench: negative TimeScale %v", cfg.TimeScale)
	}
	return &Bench{cfg: cfg}, nil
}

// Config returns the bench configuration.
func (b *Bench) Config() Config { return b.cfg }

// Worker executes invocations one at a time and owns the per-worker
// persistent-memory ballast (the gunicorn worker of the paper's
// deployment). Workers are not safe for concurrent use; a pod runs one
// goroutine per worker.
type Worker struct {
	bench        *Bench
	ballastBytes int64 // registered with Usage until it grows or Close
}

// NewWorker returns a worker bound to b.
func (b *Bench) NewWorker() *Worker { return &Worker{bench: b} }

// BallastBytes reports the persistent ballast currently held (PM only).
func (w *Worker) BallastBytes() int64 { return w.ballastBytes }

// Close releases any persistent ballast. Called when the worker's pod or
// container is torn down.
func (w *Worker) Close() {
	if w.ballastBytes > 0 {
		w.bench.cfg.Usage.AddMem(-w.ballastBytes)
		w.ballastBytes = 0
	}
}

// Execute runs one invocation: verify inputs, hold memory, stress the
// CPU, write outputs. The returned Response always has Name set; OK is
// false when err is non-nil.
func (w *Worker) Execute(ctx context.Context, req *Request) (*Response, error) {
	resp := new(Response)
	return resp, w.ExecuteInto(ctx, req, nil, resp)
}

// ExecuteInto is Execute into the caller's Response — a slot of its
// batch's slab, a field of its invocation — which it overwrites. With a
// prep the input files were already verified (and content-hashed) by the
// batch's shared PrepareInputs pass: the input phase reduces to hash-map
// lookups against it instead of a per-task drive wait.
func (w *Worker) ExecuteInto(ctx context.Context, req *Request, prep *BatchPrep, resp *Response) error {
	*resp = Response{Name: req.Name}
	if err := req.Validate(); err != nil {
		resp.Error = err.Error()
		return err
	}
	cfg := w.bench.cfg
	// sc is the execute-level span the platform (or service handler)
	// propagated; each benchmark phase below becomes a leaf span under
	// it. An invalid/unsampled context makes every StartChild nil and
	// all span calls no-ops.
	sc := obs.SpanFromContext(ctx)

	// 1. Input files must be present on the shared drive (written by
	// preceding functions or staged as external inputs). Sub-tasks of a
	// batch consult the batch's single verification pass instead.
	if len(req.Inputs) > 0 {
		span := cfg.Tracer.StartChild(sc, "inputs", obs.LayerWfbench)
		span.SetInt("files", len(req.Inputs))
		var missing []string
		if prep != nil {
			span.SetAttr("verified", "batch")
			missing = prep.missingOf(req.Inputs)
		} else {
			pending := req.Inputs
			if hasher, ok := cfg.Drive.(sharedfs.Hasher); ok {
				// Content-address fast path: resolve each input against
				// the drive's metadata index instead of scanning for
				// existence; only the genuinely-absent subset falls
				// through to the bounded wait.
				span.SetAttr("verified", "content-address")
				pending = nil
				for _, name := range req.Inputs {
					if _, ok := hasher.ContentHash(name); !ok {
						pending = append(pending, name)
					}
				}
			} else if sharedfs.AllExist(cfg.Drive, req.Inputs) {
				pending = nil
			}
			if len(pending) > 0 {
				waitCtx := ctx
				if cfg.InputWait > 0 {
					var cancel context.CancelFunc
					waitCtx, cancel = context.WithTimeout(ctx, cfg.InputWait)
					defer cancel()
				} else {
					var cancel context.CancelFunc
					waitCtx, cancel = context.WithTimeout(ctx, time.Nanosecond)
					defer cancel()
				}
				poll := cfg.InputWait / 20
				missing, _ = sharedfs.WaitFor(waitCtx, cfg.Drive, pending, poll)
			}
		}
		if len(missing) > 0 {
			err := fmt.Errorf("wfbench: %s: missing inputs %v", req.Name, missing)
			span.SetAttr("error", err.Error())
			span.Finish()
			resp.Error = err.Error()
			return err
		}
		span.Finish()
	}

	// 2. Memory ballast. Without --vm-keep it lives for this invocation
	// only; with it, the worker retains (and grows) the ballast until
	// its process dies, which is what makes PM paradigms heavier.
	if req.MemBytes > 0 {
		span := cfg.Tracer.StartChild(sc, "memory", obs.LayerWfbench)
		span.SetFloat("mem_bytes", float64(req.MemBytes))
		if cfg.KeepMem {
			span.SetAttr("keep", "true")
			if req.MemBytes > w.ballastBytes {
				cfg.Usage.AddMem(req.MemBytes - w.ballastBytes)
				w.ballastBytes = req.MemBytes
			}
		} else {
			cfg.Usage.AddMem(req.MemBytes)
			defer cfg.Usage.AddMem(-req.MemBytes)
		}
		span.Finish()
	}

	// 3. CPU stress at the duty cycle.
	busy, wall := req.Durations()
	resp.BusySeconds, resp.WallSeconds = busy, wall
	if wall > 0 {
		span := cfg.Tracer.StartChild(sc, "cpu", obs.LayerWfbench)
		span.SetFloat("duty", req.PercentCPU)
		span.SetInt("cores", req.CoresOrOne())
		busyCores := req.PercentCPU * float64(req.CoresOrOne())
		cfg.Usage.AddBusy(busyCores)
		err := cfg.Engine.Run(ctx, time.Duration(wall*cfg.TimeScale*float64(time.Second)), req.PercentCPU)
		cfg.Usage.AddBusy(-busyCores)
		if err != nil {
			span.SetAttr("error", err.Error())
			span.Finish()
			resp.Error = err.Error()
			return err
		}
		span.Finish()
	}

	// 4. Outputs become visible to successor functions.
	if len(req.Out) > 0 {
		span := cfg.Tracer.StartChild(sc, "outputs", obs.LayerWfbench)
		for out, size := range req.Out {
			if err := cfg.Drive.WriteFile(out, size); err != nil {
				span.SetAttr("error", err.Error())
				span.Finish()
				resp.Error = err.Error()
				return err
			}
			resp.OutBytes += size
		}
		span.SetFloat("out_bytes", float64(resp.OutBytes))
		span.Finish()
	}
	resp.OK = true
	return nil
}
