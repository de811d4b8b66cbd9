package experiments

// The resilience campaign: one generated workflow against a WfBench
// service behind the fault injector, with the manager's resilience
// layer (retries, jittered backoff, per-task timeouts, the circuit
// breaker) switched on. The injector keys each fault by (seed, task,
// attempt), so both scheduling modes face the identical adversary,
// task by task. With Memoize each cell adds a warm re-run through the
// same injector: every task must be served from the cache, which makes
// a memoized re-run immune to endpoint flakiness.

import (
	"context"
	"fmt"

	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

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

func newResilience(cfg Config) (*campaign, error) {
	cfg = cfg.or(Config{Recipe: "blast", Tasks: 60, Seed: 1, Parallel: 512, TimeScale: 0.02})
	base, err := wfgen.Generate(wfgen.Spec{Recipe: cfg.Recipe, NumTasks: cfg.Tasks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	c := &campaign{
		title: fmt.Sprintf("Resilience: %s-%d through a faulty endpoint (error %.2f, reject %.2f, latency %.0fms)",
			cfg.Recipe, cfg.Tasks, cfg.Faults.ErrorRate, cfg.Faults.RejectRate, float64(cfg.Faults.Latency.Microseconds())/1e3),
		env:   envSpec{w: base, workers: 16, timeScale: cfg.TimeScale, faults: cfg.Faults},
		opts:  cfg.manager(wfm.Options{Retries: 6, RetryBackoff: 0.5, RetryBackoffMax: 8, Breaker: DefaultResilienceBreaker()}),
		cells: modes(Cell{}),
		// The seed alone decides these columns; the footer's makespans
		// the host clock has a say in.
		columns: []column{
			modeCol, workflowCol, tasksCol,
			{"attempts", 8, func(r *Row) any { return r.Attempts }},
			{"retries", 7, func(r *Row) any { return r.Retries }},
			{"faults", 7, func(r *Row) any { return r.FaultStats.Errors }},
			{"rejects", 7, func(r *Row) any { return r.FaultStats.Rejects }},
			{"delays", 7, func(r *Row) any { return r.FaultStats.Delays }},
			{"failed", 6, func(r *Row) any { return r.Failed }},
			{"breakerEvt", 9, func(r *Row) any { return len(r.Breakers) }},
		},
		gates: []gate{{"no task failed through the resilience layer", func(r *Row) bool { return r.Failed == 0 }}},
		footer: func(rows []Row) []string {
			lines := []string{"makespan (nominal s):"}
			for _, r := range rows {
				lines[0] += fmt.Sprintf(" %s %.1f", r.Mode, r.MakespanS)
				if cfg.Memoize {
					lines = append(lines, fmt.Sprintf("memoized re-run (%s): %d hit(s), %d miss(es), wall %v", r.Mode, r.Hits, r.Misses, r.Wall))
				}
			}
			return lines
		},
	}
	if cfg.Memoize {
		c.gates = append(c.gates, memoHits)
	}
	c.measure = func(ctx context.Context, cl Cell) (Row, error) {
		spec := c.env
		spec.tracer = cfg.tracer()
		e, err := newEnv(spec)
		if err != nil {
			return Row{}, err
		}
		defer e.close()
		o := c.opts
		o.Scheduling, o.Tracer = cl.Mode, spec.tracer
		if cfg.Memoize {
			if o.Memoize, err = e.cache(); err != nil {
				return Row{}, err
			}
		}
		res, err := e.run(ctx, o)
		if o.Memoize != nil {
			o.Memoize.Close()
		}
		if err != nil {
			return Row{}, fmt.Errorf("experiments: resilience %s (%s): %w", base.Name, cl.Mode, err)
		}
		r := Row{
			Workflow:     res.Workflow,
			Recipe:       cfg.Recipe,
			Tasks:        e.w.Len(),
			MakespanS:    res.Makespan,
			Failed:       len(res.Failed),
			Breakers:     res.Breakers,
			TaskAttempts: make(map[string]int, len(res.Tasks)),
		}
		if e.inj != nil {
			r.FaultStats = e.inj.Stats()
		}
		for name, tr := range res.Tasks {
			if name != wfm.HeaderName && name != wfm.TailName {
				r.Attempts += tr.Attempts
				r.TaskAttempts[name] = tr.Attempts
			}
		}
		r.Retries = r.Attempts - r.Tasks
		if spec.tracer != nil {
			r.Trace = wfm.TraceOf(res)
		}
		if !cfg.Memoize {
			return r, nil
		}
		// The warm re-run: the same workflow through the same injector,
		// the cache reopened from disk.
		if o.Memoize, err = e.cache(); err != nil {
			return Row{}, err
		}
		defer o.Memoize.Close()
		warm, err := e.run(ctx, o)
		if err != nil {
			return Row{}, fmt.Errorf("experiments: resilience memoized re-run %s (%s): %w", base.Name, cl.Mode, err)
		}
		if warm.Memo != nil {
			r.Hits, r.Misses = int(warm.Memo.Hits), int(warm.Memo.Misses)
		}
		r.Wall = warm.Wall
		return r, nil
	}
	return c, nil
}
