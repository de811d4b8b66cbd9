package experiments

// The health campaign: stragglers. Each scheduling mode runs one
// workflow twice against a latency-injecting WfBench service: once with
// the run-health plane off (the tail is waited out) and once with
// straggler detection plus speculative retry. Each name is delayed at
// most once (LatencyOnce), so a speculative backup lands on the fast
// path: the bad-placement straggler model. The journal and memo cache
// are on in both runs, so the campaign also proves speculation never
// double-records a task.

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

func newHealth(cfg Config) (*campaign, error) {
	cfg = cfg.or(Config{Recipe: "blast", Tasks: 24, Seed: 1, Parallel: 512, TimeScale: 0.005, Latency: time.Second})
	base, err := wfgen.Generate(wfgen.Spec{Recipe: cfg.Recipe, NumTasks: cfg.Tasks, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	c := &campaign{
		title: fmt.Sprintf("Health: %s-%d straggler campaign (injected tail %v, speculation on vs off)", cfg.Recipe, cfg.Tasks, cfg.Latency),
		env: envSpec{w: base, workers: 16, timeScale: cfg.TimeScale, faults: wfbench.FaultProfile{
			// The first requests pass undelayed so the endpoint's latency
			// baseline forms before the tail appears.
			LatencyRate: 1, Latency: cfg.Latency, LatencyAfter: 6, LatencyOnce: true, Seed: cfg.Seed,
		}},
		opts:  cfg.manager(wfm.Options{}),
		cells: modes(Cell{}),
		columns: []column{
			modeCol, workflowCol, tasksCol,
			{"baseWall", 12, func(r *Row) any { return r.BaselineWall.Round(time.Millisecond) }},
			{"healthWall", 12, func(r *Row) any { return r.Wall.Round(time.Millisecond) }},
			{"improve", 8, func(r *Row) any { return fmt.Sprintf("%.1f%%", r.ImprovementPct) }},
			{"injected", 9, func(r *Row) any { return len(r.Injected) }},
			{"flagged", 8, func(r *Row) any { return len(r.Flagged) }},
			{"spec", 6, func(r *Row) any { return r.SpeculativeRetries }},
			{"missing", 8, func(r *Row) any { return len(r.Missing()) }},
		},
		gates: []gate{
			{"every injected straggler flagged", func(r *Row) bool { return len(r.Missing()) == 0 }},
			{"journal holds one terminal record per task", func(r *Row) bool {
				return r.TerminalRecords == r.Tasks && r.JournalCompleted == r.Tasks
			}},
			{"speculation cuts the makespan by >= 25%", func(r *Row) bool { return r.ImprovementPct >= 25 }},
		},
	}
	// pass runs the workflow in a fresh world; detect switches the
	// health plane on.
	pass := func(ctx context.Context, mode wfm.Scheduling, detect bool, r *Row) (*wfm.Result, error) {
		e, err := newEnv(c.env)
		if err != nil {
			return nil, err
		}
		defer e.close()
		j, err := e.journal()
		if err != nil {
			return nil, err
		}
		cache, err := e.cache()
		if err != nil {
			j.Close()
			return nil, err
		}
		o := c.opts
		o.Scheduling, o.Journal, o.Memoize = mode, j, cache
		if detect {
			o.Health = &wfm.HealthOptions{StragglerFactor: 3, MinSamples: 4, SpeculativeRetry: true}
		}
		res, err := e.run(ctx, o)
		j.Close()
		cache.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: health %s (%s, detect=%v): %w", base.Name, mode, detect, err)
		}
		if detect {
			r.Injected = e.inj.DelayedNames()
			sum, err := wfm.ReadRunJournal(filepath.Join(e.dir, "journal"))
			if err != nil {
				return nil, err
			}
			r.JournalCompleted = sum.CompletedTasks
			r.TerminalRecords = sum.EventCounts["task-completed"] + sum.EventCounts["task-memoized"]
		}
		return res, nil
	}
	c.measure = func(ctx context.Context, cl Cell) (Row, error) {
		r := Row{Tasks: base.Len()}
		off, err := pass(ctx, cl.Mode, false, &r)
		if err != nil {
			return r, err
		}
		on, err := pass(ctx, cl.Mode, true, &r)
		if err != nil {
			return r, err
		}
		r.Workflow, r.BaselineWall, r.Wall = on.Workflow, off.Wall, on.Wall
		if off.Wall > 0 {
			r.ImprovementPct = (1 - float64(on.Wall)/float64(off.Wall)) * 100
		}
		if h := on.Health; h != nil {
			for _, s := range h.Stragglers {
				r.Flagged = append(r.Flagged, s.Task)
			}
			r.SpeculativeRetries, r.SpeculativeWins, r.Endpoints = h.SpeculativeRetries, h.SpeculativeWins, h.Endpoints
		}
		return r, nil
	}
	return c, nil
}
