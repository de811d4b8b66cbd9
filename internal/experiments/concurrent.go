package experiments

import (
	"context"
	"fmt"
	"sync"

	"wfserverless/internal/wfformat"
)

// ConcurrentMeasurement records a multi-workflow run: several workflows
// submitted to one platform at once — the paper's future-work conjecture
// that "fine-grained resource management and the auto-scaling mechanism
// of serverless can improve even more aspects such as resource usage,
// when we consider the invocation of multiple concurrent functions by
// different workflows" (Section VII).
type ConcurrentMeasurement struct {
	Paradigm  Paradigm
	Workflows []string
	Tasks     int

	// MakespanS is the nominal time until the last workflow finishes.
	MakespanS float64
	// SumSoloS is the sum of per-workflow makespans when run alone on
	// the same paradigm — the serialized baseline.
	SumSoloS float64
	// Interleave = MakespanS / SumSoloS; < 1 means the platform
	// overlapped the workflows.
	Interleave float64

	MeanPowerW   float64
	MeanCPUCores float64
	MeanMemGB    float64
	Failures     int64
}

// RunConcurrent executes the workflows simultaneously on one testbed of
// the given paradigm and contrasts against running each alone.
func RunConcurrent(ctx context.Context, spec Spec, workflows []*wfformat.Workflow, tn Tunables) (*ConcurrentMeasurement, error) {
	if len(workflows) == 0 {
		return nil, fmt.Errorf("experiments: RunConcurrent needs workflows")
	}
	out := &ConcurrentMeasurement{Paradigm: spec.ID}
	for _, w := range workflows {
		out.Workflows = append(out.Workflows, w.Name)
		out.Tasks += w.Len()
	}

	// Solo baselines, one fresh testbed each.
	for _, w := range workflows {
		m, err := RunWorkflow(ctx, spec, w, tn)
		if err != nil {
			return nil, fmt.Errorf("experiments: solo %s: %w", w.Name, err)
		}
		out.SumSoloS += m.MakespanS
	}

	// Concurrent run on one shared testbed.
	tb, err := NewTestbed(spec, tn)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	win := tb.Cluster.Measure()
	var wg sync.WaitGroup
	errs := make([]error, len(workflows))
	makespans := make([]float64, len(workflows))
	for i, w := range workflows {
		wg.Add(1)
		go func(i int, w *wfformat.Workflow) {
			defer wg.Done()
			res, err := tb.Run(ctx, w)
			errs[i] = err
			if res != nil {
				makespans[i] = res.Makespan
			}
		}(i, w)
	}
	wg.Wait()
	var m Measurement
	m.account(win.Close(), tn.TimeScale)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: concurrent %s: %w", workflows[i].Name, err)
		}
	}
	for _, ms := range makespans {
		if ms > out.MakespanS {
			out.MakespanS = ms
		}
	}
	if out.SumSoloS > 0 {
		out.Interleave = out.MakespanS / out.SumSoloS
	}
	out.MeanPowerW, out.MeanCPUCores, out.MeanMemGB = m.MeanPowerW, m.MeanCPUCores, m.MeanMemGB
	out.Failures = tb.Platform.Failures()
	return out, nil
}
