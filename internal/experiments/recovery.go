package experiments

// The recovery campaign: durable execution's acceptance experiment.
// Each cell runs a synthetic workflow with the run journal on, kills
// the manager after a random number of completions (context
// cancellation plus journal.Abort: the staged-but-unsynced tail dies
// exactly as it would with the process), deletes a few published
// outputs to model storage loss, and resumes from the journal in a
// fresh manager on the same drive. Cells cross both scheduling modes
// with the fault injector off and on, Trials crash points each, so
// recovery is exercised under retries, 429s and injected errors. With
// Memoize the memo cache rides beside the journal: recovery and
// memoization must partition the work, never overlap it.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfm"
)

func newRecovery(cfg Config) (*campaign, error) {
	cfg = cfg.or(Config{Tasks: 400, Width: 32, Trials: 3, Seed: 7, Parallel: 64, TimeScale: 0.002,
		Faults: wfbench.FaultProfile{ErrorRate: 0.2, RejectRate: 0.05}})
	const vanish = 2 // outputs deleted between crash and resume
	w, _, err := synthetic("", "random", cfg.Tasks, cfg.Width, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var inner []Cell
	for _, faults := range []bool{false, true} {
		for t := 0; t < cfg.Trials; t++ {
			inner = append(inner, Cell{Faults: faults, Trial: t})
		}
	}
	c := &campaign{
		title: fmt.Sprintf("Recovery: %d-task workflows, %d randomized crash points per cell (memoize=%t)",
			cfg.Tasks, cfg.Trials, cfg.Memoize),
		env: envSpec{w: w},
		// Retries generous enough that injected faults never end a run.
		opts:  cfg.manager(wfm.Options{Retries: 8, RetryBackoff: 0.2, TaskTimeout: 60}),
		cells: modes(inner...),
		columns: []column{
			modeCol,
			{"faults", -7, func(r *Row) any { return r.Faults }},
			{"trial", 6, func(r *Row) any { return r.Trial }},
			tasksCol,
			{"crashAfter", 11, func(r *Row) any { return r.CrashAfter }},
			{"recorded", 9, func(r *Row) any { return r.Recorded }},
			{"skipped", 8, func(r *Row) any { return r.Skipped }},
			{"reexec", 7, func(r *Row) any { return r.Reexecuted }},
			{"vanished", 8, func(r *Row) any { return r.Vanished }},
			dupsCol, driveCol,
		},
		gates: []gate{noDuplicates, driveMatches},
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	refs := map[Cell][]string{} // by {mode, faults}
	c.measure = func(ctx context.Context, cl Cell) (Row, error) {
		crashAfter := 1 + rng.Intn(cfg.Tasks-1)
		spec := c.env
		if cl.Faults {
			spec.faults = cfg.Faults
			spec.faults.Seed = cfg.Seed
		}
		key := Cell{Mode: cl.Mode, Faults: cl.Faults}
		if refs[key] == nil {
			ref, err := c.reference(ctx, spec, cl.Mode)
			if err != nil {
				return Row{}, err
			}
			refs[key] = ref
		}
		spec.faults.Seed = cfg.Seed + int64(cl.Trial) + 1
		e, err := newEnv(spec)
		if err != nil {
			return Row{}, err
		}
		defer e.close()

		// Life 1: run until crashAfter tasks have completed, then kill.
		o := c.opts
		o.Scheduling = cl.Mode
		j, err := e.journal()
		if err != nil {
			return Row{}, err
		}
		if cfg.Memoize {
			if o.Memoize, err = e.cache(); err != nil {
				return Row{}, err
			}
		}
		runCtx, kill := context.WithCancel(ctx)
		defer kill()
		var once sync.Once
		o.Journal = j
		o.AfterTaskDone = func(done int) {
			if done >= crashAfter {
				once.Do(kill)
			}
		}
		m, err := e.manager(o)
		if err != nil {
			return Row{}, err
		}
		m.Run(runCtx, e.w) // error expected: the run was killed mid-flight
		j.Abort()
		if o.Memoize != nil {
			o.Memoize.Close() // flush what the crashed run cached; the resume reopens it from disk
		}

		// Storage loss: outputs the crashed run published go, so the
		// resume's output verification must re-execute their producers.
		vanished := 0
		files := e.drive.List()
		for _, i := range rng.Perm(len(files)) {
			if vanished == vanish {
				break
			}
			if strings.HasPrefix(files[i], "out_") {
				e.drive.Remove(files[i])
				vanished++
			}
		}

		// Life 2: reopen the journal (replaying it, torn tail and all)
		// and resume in a fresh manager on the same drive.
		j2, err := e.journal()
		if err != nil {
			return Row{}, err
		}
		defer j2.Close()
		o.Journal, o.AfterTaskDone = j2, nil
		if cfg.Memoize {
			if o.Memoize, err = e.cache(); err != nil {
				return Row{}, err
			}
			defer o.Memoize.Close()
		}
		m2, err := e.manager(o)
		if err != nil {
			return Row{}, err
		}
		res, err := m2.Resume(ctx, e.w)
		if err != nil {
			return Row{}, fmt.Errorf("experiments: recovery resume (%s): %w", cl, err)
		}
		r := Row{
			Tasks:      cfg.Tasks,
			CrashAfter: crashAfter,
			Vanished:   vanished,
			DriveMatch: slices.Equal(refs[key], e.drive.List()),
		}
		if res.Resume != nil {
			r.Recorded, r.Skipped, r.Reexecuted = res.Resume.RecordedCompleted, res.Resume.SkippedInvocations, res.Resume.Reexecuted
		}
		if res.Memo != nil {
			r.Hits = int(res.Memo.Hits)
		}
		// A task the journal recorded (with its outputs intact) or the
		// cache vouched for ran in life 1 and must not run again.
		var vouched []string
		for _, tr := range res.Tasks {
			if tr.Recovered || tr.Memoized {
				vouched = append(vouched, tr.Name)
			}
		}
		r.Dups = twice(e.stub.Counts(), vouched)
		return r, nil
	}
	return c, nil
}
