package experiments

import (
	"context"
	"fmt"
	"sync"

	"wfserverless/internal/core"
	"wfserverless/internal/metrics"
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

// RunConcurrent executes the workflows simultaneously on one session of
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

	// Solo baselines, one fresh session each.
	for _, w := range workflows {
		m, err := RunWorkflow(ctx, spec, w, tn)
		if err != nil {
			return nil, fmt.Errorf("experiments: solo %s: %w", w.Name, err)
		}
		out.SumSoloS += m.MakespanS
	}

	// Concurrent run on one shared session.
	cfg, err := SessionConfig(spec, tn)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if err := sess.StartSampling(); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(workflows))
	makespans := make([]float64, len(workflows))
	for i, w := range workflows {
		wg.Add(1)
		go func(i int, w *wfformat.Workflow) {
			defer wg.Done()
			res, err := sess.Run(ctx, w)
			errs[i] = err
			if res != nil {
				makespans[i] = res.Makespan
			}
		}(i, w)
	}
	wg.Wait()
	sess.StopSampling()
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
	s := sess.Sampler()
	out.MeanPowerW = s.MeanOf(metrics.MetricPower)
	out.MeanCPUCores = s.MeanOf("cpu.usage.cores")
	out.MeanMemGB = gb(s.MeanOf(metrics.MetricMemUsed))
	out.Failures = sess.Platform().Failures()
	return out, nil
}
