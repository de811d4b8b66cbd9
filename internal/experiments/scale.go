package experiments

// This file implements the scale campaign: how far past the paper's
// 250-task workflows the prototype's hot path goes. A synthetic
// workflow of up to 100k tasks is built in memory, compiled, and
// executed end-to-end through the workflow manager against a loopback
// WfBench stub that publishes outputs to the shared drive — so the
// measured cost is DAG compilation, scheduling, invocation encoding,
// HTTP dispatch, and result accounting, not simulated compute. Peak
// RSS is read from /proc/self/status (VmHWM) to verify memory stays
// bounded.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// ScaleConfig configures one scale run.
type ScaleConfig struct {
	// Tasks is the synthetic workflow size (e.g. 100_000).
	Tasks int
	// Shape is the DAG generator: "random" (layered, two random
	// parents per task — the acceptance shape), "chain", or "fanout".
	Shape string
	// Width is tasks per layer for the random shape; 0 defaults to 64.
	Width int
	// Scheduling selects the manager mode; dependency is the mode the
	// scale target is specified against.
	Scheduling wfm.Scheduling
	// MaxParallel bounds simultaneous invocations; 0 defaults to 256
	// (unbounded would open one connection per ready task).
	MaxParallel int
	// Seed drives the random shape.
	Seed int64
	// Batching runs the campaign through the manager's batched
	// invocation pipeline (wfm.BatchOptions) — the scale knob that
	// breaks the HTTP/1 request-per-task wall.
	Batching wfm.BatchOptions
	// TraceSample enables span collection: the fraction of workflow
	// roots recorded (1 records everything, 0 disables). At 100k tasks
	// a fully sampled run holds ~200k spans in memory; the overhead
	// benchmark in internal/wfm quantifies the hot-path cost.
	TraceSample float64
}

// ScaleResult reports one scale run.
type ScaleResult struct {
	Tasks        int
	Edges        int
	Shape        string
	Scheduling   string
	BuildWall    time.Duration // workflow construction + validation
	RunWall      time.Duration // manager Run, end to end
	TasksPerSec  float64
	PeakRSSBytes int64 // VmHWM after the run; 0 where /proc is absent
	Completed    int
	// Trace carries the run's spans when TraceSample was set; nil
	// otherwise.
	Trace *wfm.Trace
}

// Scale builds and executes the configured synthetic workflow.
func Scale(ctx context.Context, cfg ScaleConfig) (*ScaleResult, error) {
	if cfg.Tasks <= 0 {
		return nil, fmt.Errorf("experiments: Scale needs Tasks > 0")
	}
	if cfg.MaxParallel == 0 {
		cfg.MaxParallel = 256
	}
	drive := sharedfs.NewMem()
	// The loopback endpoint does no simulated compute and answers both
	// the single-task POST and the framed /invoke-batch surface, so
	// either transport measures the same amount of real work per task.
	stub, err := wfbench.ListenLoopback(wfbench.NewEndpoint(wfbench.NewStub(drive, 0)))
	if err != nil {
		return nil, err
	}
	defer stub.Close()

	buildStart := time.Now()
	w, edges, err := scaleWorkflow(cfg, stub.URL()+"/wfbench")
	if err != nil {
		return nil, err
	}
	var tracer *obs.Tracer
	if cfg.TraceSample > 0 {
		tracer = obs.NewTracer(obs.Options{SampleRatio: cfg.TraceSample})
	}
	m, err := wfm.New(wfm.Options{
		Drive:       drive,
		MaxParallel: cfg.MaxParallel,
		Scheduling:  cfg.Scheduling,
		Batching:    cfg.Batching,
		Tracer:      tracer,
		// The stub answers in microseconds, so nominal paper seconds
		// are compressed hard: the phase-mode inter-phase delay becomes
		// 1ms instead of 1s (a 100k chain has thousands of levels), and
		// InputWait still allows 5s of wall time per wait.
		TimeScale: 0.001,
		InputWait: 5000,
	})
	if err != nil {
		return nil, err
	}
	build := time.Since(buildStart)

	runStart := time.Now()
	res, err := m.Run(ctx, w)
	if err != nil {
		return nil, err
	}
	run := time.Since(runStart)

	completed := 0
	for _, tr := range res.Tasks {
		if tr.Err == nil && tr.Name != wfm.HeaderName && tr.Name != wfm.TailName {
			completed++
		}
	}
	sr := &ScaleResult{
		Tasks:        cfg.Tasks,
		Edges:        edges,
		Shape:        cfg.Shape,
		Scheduling:   cfg.Scheduling.String(),
		BuildWall:    build,
		RunWall:      run,
		TasksPerSec:  float64(cfg.Tasks) / run.Seconds(),
		PeakRSSBytes: PeakRSS(),
		Completed:    completed,
	}
	if tracer != nil {
		sr.Trace = wfm.TraceOf(res)
	}
	return sr, nil
}

// scaleWorkflow builds the synthetic DAG. Every task publishes one
// output file; non-root tasks consume their parents' outputs, so DAG
// edges and shared-drive waits line up exactly.
func scaleWorkflow(cfg ScaleConfig, url string) (*wfformat.Workflow, int, error) {
	n := cfg.Tasks
	w := wfformat.New(fmt.Sprintf("scale-%s-%d", cfg.Shape, n))
	name := func(i int) string { return fmt.Sprintf("task_%08d", i) }
	out := func(i int) string { return fmt.Sprintf("out_%08d", i) }
	mk := func(i int, parents []int) *wfformat.Task {
		inputs := make([]string, len(parents))
		files := make([]wfformat.File, 0, len(parents)+1)
		files = append(files, wfformat.File{Link: wfformat.LinkOutput, Name: out(i), SizeInBytes: 1})
		for j, p := range parents {
			inputs[j] = out(p)
			files = append(files, wfformat.File{Link: wfformat.LinkInput, Name: out(p), SizeInBytes: 1})
		}
		return &wfformat.Task{
			Name: name(i),
			Type: wfformat.TypeCompute,
			Command: wfformat.Command{
				Program: "wfbench",
				Arguments: []wfformat.Argument{{
					Name:    name(i),
					CPUWork: 0,
					Out:     map[string]int64{out(i): 1},
					Inputs:  inputs,
				}},
				APIURL: url,
			},
			Files:            files,
			RuntimeInSeconds: 0.001,
			Cores:            1,
			Category:         "scale",
		}
	}

	parentsOf := make([][]int, n)
	switch cfg.Shape {
	case "chain":
		for i := 1; i < n; i++ {
			parentsOf[i] = []int{i - 1}
		}
	case "fanout":
		for i := 1; i < n; i++ {
			parentsOf[i] = []int{0}
		}
	case "random", "":
		width := cfg.Width
		if width <= 0 {
			width = 64
		}
		r := rand.New(rand.NewSource(cfg.Seed + 1))
		for i := width; i < n; i++ {
			layer := i / width
			prevStart := (layer - 1) * width
			prevEnd := layer * width
			if prevEnd > i {
				prevEnd = i
			}
			a := prevStart + r.Intn(prevEnd-prevStart)
			b := prevStart + r.Intn(prevEnd-prevStart)
			if a == b {
				parentsOf[i] = []int{a}
			} else {
				parentsOf[i] = []int{a, b}
			}
		}
	default:
		return nil, 0, fmt.Errorf("experiments: unknown scale shape %q", cfg.Shape)
	}

	edges := 0
	for i := 0; i < n; i++ {
		if err := w.AddTask(mk(i, parentsOf[i])); err != nil {
			return nil, 0, err
		}
	}
	for i := 0; i < n; i++ {
		for _, p := range parentsOf[i] {
			if err := w.Link(name(p), name(i)); err != nil {
				return nil, 0, err
			}
			edges++
		}
	}
	return w, edges, nil
}

// PeakRSS returns the process's peak resident set size in bytes from
// /proc/self/status (VmHWM), or 0 on platforms without procfs.
func PeakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
