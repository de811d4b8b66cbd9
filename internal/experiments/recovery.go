package experiments

// This file implements the recovery campaign: the durable-execution
// subsystem's acceptance experiment. Each trial runs a synthetic
// workflow with the run journal enabled, kills the manager at a
// randomized point mid-run (modelled as context cancellation plus
// journal.Abort — the staged-but-unsynced journal tail dies exactly as
// it would with the process), optionally deletes output files from the
// shared drive to model storage loss, then resumes from the journal in
// a fresh manager and checks the two properties durable execution
// promises:
//
//  1. the resumed run converges to a final shared-drive state identical
//     to an uninterrupted reference run, and
//  2. no task the journal recorded as completed is ever invoked again
//     (verified against per-task execution counts from the stub).
//
// The campaign crosses both scheduling modes with the PR-2 fault
// injector, so recovery is exercised under retries, 429s, and injected
// errors, not just on the happy path.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// RecoveryConfig parameterizes the crash/resume campaign.
type RecoveryConfig struct {
	// Tasks is the synthetic workflow size (default 400).
	Tasks int
	// Width is tasks per layer of the random DAG shape (default 32).
	Width int
	// Trials is how many randomized crash points each cell of the
	// {scheduling} x {faults} matrix gets (default 3).
	Trials int
	// Seed drives the DAG shape, crash points, and vanish choices.
	Seed int64
	// MaxParallel bounds simultaneous invocations (default 64).
	MaxParallel int
	// TimeScale compresses nominal seconds (default 0.002).
	TimeScale float64
	// Faults is the profile injected in the faults-on cells; a zero
	// profile falls back to a 20% error / 5% reject mix.
	Faults wfbench.FaultProfile
	// VanishOutputs is how many random output files are deleted from the
	// shared drive between crash and resume (default 2), exercising the
	// resume-time output verification path.
	VanishOutputs int
	// Batching runs the campaign through the manager's batched
	// invocation pipeline; the zero-duplicate and drive-convergence
	// invariants must hold identically, since journaling sits above the
	// transport.
	Batching wfm.BatchOptions
	// Memoize runs every trial with the content-addressed memo cache
	// enabled alongside the journal: the crashed run populates the
	// cache, the resume probes it, and the zero-duplicate invariant
	// extends to memoized tasks — recovery and memoization must
	// partition the work, never overlap it.
	Memoize bool
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.Tasks == 0 {
		c.Tasks = 400
	}
	if c.Width == 0 {
		c.Width = 32
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.MaxParallel == 0 {
		c.MaxParallel = 64
	}
	if c.TimeScale == 0 {
		c.TimeScale = 0.002
	}
	if !c.Faults.Active() {
		c.Faults = wfbench.FaultProfile{ErrorRate: 0.2, RejectRate: 0.05}
	}
	if c.VanishOutputs == 0 {
		c.VanishOutputs = 2
	}
	return c
}

// RecoveryTrial reports one kill/resume cycle.
type RecoveryTrial struct {
	Scheduling string
	Faults     bool
	Trial      int
	Tasks      int

	// CrashAfter is the completed-task count that triggered the kill.
	CrashAfter int
	// Vanished is how many drive files were deleted before the resume.
	Vanished int

	// From the resume's ResumeReport.
	RecordedCompleted  int
	SkippedInvocations int
	Reexecuted         int
	// MemoHits counts resume-side tasks seeded from the memo cache
	// rather than the journal (Memoize runs only).
	MemoHits int

	// DuplicateInvocations counts recovered (journal-verified) tasks the
	// stub nonetheless executed more than once across both processes —
	// the invariant is that this stays zero.
	DuplicateInvocations int
	// DriveMatch reports the resumed drive state equals the reference
	// run's, file for file.
	DriveMatch bool

	CrashWall  time.Duration
	ResumeWall time.Duration
}

// Recovery runs the campaign: {phases, dependency} x {faults off, on},
// Trials randomized crash points each.
func Recovery(ctx context.Context, cfg RecoveryConfig) ([]RecoveryTrial, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var out []RecoveryTrial
	for _, mode := range []wfm.Scheduling{wfm.SchedulePhases, wfm.ScheduleDependency} {
		for _, faults := range []bool{false, true} {
			ref, err := recoveryReference(ctx, cfg, mode, faults)
			if err != nil {
				return out, err
			}
			for trial := 0; trial < cfg.Trials; trial++ {
				crashAfter := 1 + rng.Intn(cfg.Tasks-1)
				t, err := recoveryTrial(ctx, cfg, mode, faults, trial, crashAfter, ref, rng)
				if err != nil {
					return out, err
				}
				out = append(out, *t)
			}
		}
	}
	return out, nil
}

// recoveryEnv is one trial's world: a fresh drive, the counting WfBench
// stub (optionally behind the fault injector) — whose per-name counts,
// kept across process lifetimes, are the ground truth duplicates are
// checked against — and the synthetic workflow wired to it.
type recoveryEnv struct {
	drive sharedfs.Drive
	stub  *wfbench.Stub
	srv   *wfbench.Loopback
	w     *wfformat.Workflow
}

func (e *recoveryEnv) Close() { e.srv.Close() }

func newRecoveryEnv(cfg RecoveryConfig, faults bool, faultSeed int64) (*recoveryEnv, error) {
	drive := sharedfs.NewMem()
	stub := wfbench.NewStub(drive, 0)
	var handler http.Handler = wfbench.NewEndpoint(stub)
	if faults {
		p := cfg.Faults
		p.Seed = faultSeed
		inj, err := wfbench.NewInjector(handler, p)
		if err != nil {
			return nil, err
		}
		handler = inj
	}
	srv, err := wfbench.ListenLoopback(handler)
	if err != nil {
		return nil, err
	}
	w, _, err := scaleWorkflow(ScaleConfig{
		Tasks: cfg.Tasks, Shape: "random", Width: cfg.Width, Seed: cfg.Seed,
	}, srv.URL()+"/wfbench")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &recoveryEnv{drive: drive, stub: stub, srv: srv, w: w}, nil
}

// recoveryManager builds a manager over the env with retry settings
// generous enough that injected faults never terminate a run.
func recoveryManager(cfg RecoveryConfig, mode wfm.Scheduling, env *recoveryEnv, j *journal.Journal, c *memo.Cache, afterDone func(int)) (*wfm.Manager, error) {
	return wfm.New(wfm.Options{
		Drive:         env.drive,
		TimeScale:     cfg.TimeScale,
		PhaseDelay:    1,
		InputWait:     30,
		MaxParallel:   cfg.MaxParallel,
		Scheduling:    mode,
		Retries:       8,
		RetryBackoff:  0.2,
		TaskTimeout:   60,
		Batching:      cfg.Batching,
		Journal:       j,
		Memoize:       c,
		AfterTaskDone: afterDone,
	})
}

// recoveryReference executes the cell's workflow uninterrupted (no
// journal) and returns the resulting drive listing — the state every
// crashed-and-resumed trial must converge to.
func recoveryReference(ctx context.Context, cfg RecoveryConfig, mode wfm.Scheduling, faults bool) ([]string, error) {
	env, err := newRecoveryEnv(cfg, faults, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	m, err := recoveryManager(cfg, mode, env, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(ctx, env.w); err != nil {
		return nil, fmt.Errorf("experiments: recovery reference (%s, faults=%t): %w", mode, faults, err)
	}
	return env.drive.List(), nil
}

// recoveryTrial performs one kill/resume cycle and checks the durable
// execution invariants against the reference drive state.
func recoveryTrial(ctx context.Context, cfg RecoveryConfig, mode wfm.Scheduling, faults bool, trial, crashAfter int, ref []string, rng *rand.Rand) (*RecoveryTrial, error) {
	env, err := newRecoveryEnv(cfg, faults, cfg.Seed+int64(trial)+1)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	dir, err := os.MkdirTemp("", "wfm-recovery-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncGroup})
	if err != nil {
		return nil, err
	}
	var c *memo.Cache
	cachePath := dir + "/memo.cache"
	if cfg.Memoize {
		if c, err = memo.Open(cachePath); err != nil {
			return nil, err
		}
	}

	// Phase 1: run until crashAfter tasks have completed, then kill —
	// cancel the run context and Abort the journal so its unsynced tail
	// is lost exactly as a real process death would lose it.
	runCtx, kill := context.WithCancel(ctx)
	defer kill()
	var once sync.Once
	m, err := recoveryManager(cfg, mode, env, j, c, func(done int) {
		if done >= crashAfter {
			once.Do(kill)
		}
	})
	if err != nil {
		return nil, err
	}
	crashStart := time.Now()
	m.Run(runCtx, env.w) // error expected: the run was killed mid-flight
	crashWall := time.Since(crashStart)
	j.Abort()
	if c != nil {
		c.Close() // flush what the crashed run cached; resume reopens from disk
	}

	// Model storage loss: delete a few outputs the crashed run already
	// published, forcing resume-time verification to re-execute their
	// producers.
	vanished := 0
	if files := env.drive.List(); len(files) > 0 {
		for _, i := range rng.Perm(len(files)) {
			if vanished == cfg.VanishOutputs {
				break
			}
			if strings.HasPrefix(files[i], "out_") {
				env.drive.Remove(files[i])
				vanished++
			}
		}
	}

	// Phase 2: reopen the journal (replaying it, torn tail and all) and
	// resume in a fresh manager on the same drive.
	j2, err := journal.Open(dir, journal.Options{Sync: journal.SyncGroup})
	if err != nil {
		return nil, err
	}
	defer j2.Close()
	var c2 *memo.Cache
	if cfg.Memoize {
		if c2, err = memo.Open(cachePath); err != nil {
			return nil, err
		}
		defer c2.Close()
	}
	m2, err := recoveryManager(cfg, mode, env, j2, c2, nil)
	if err != nil {
		return nil, err
	}
	resumeStart := time.Now()
	res, err := m2.Resume(ctx, env.w)
	resumeWall := time.Since(resumeStart)
	if err != nil {
		return nil, fmt.Errorf("experiments: recovery resume (%s, faults=%t, trial %d): %w", mode, faults, trial, err)
	}

	t := &RecoveryTrial{
		Scheduling: mode.String(),
		Faults:     faults,
		Trial:      trial,
		Tasks:      cfg.Tasks,
		CrashAfter: crashAfter,
		Vanished:   vanished,
		CrashWall:  crashWall,
		ResumeWall: resumeWall,
		DriveMatch: slices.Equal(ref, env.drive.List()),
	}
	if res.Resume != nil {
		t.RecordedCompleted = res.Resume.RecordedCompleted
		t.SkippedInvocations = res.Resume.SkippedInvocations
		t.Reexecuted = res.Resume.Reexecuted
	}
	if res.Memo != nil {
		t.MemoHits = int(res.Memo.Hits)
	}
	// A recovered task is one the journal recorded completed AND whose
	// outputs survived — and under Memoize, a memoized task is one the
	// cache vouched for: either way the stub must have executed it
	// exactly once.
	counts := env.stub.Counts()
	for _, tr := range res.Tasks {
		if (tr.Recovered || tr.Memoized) && counts[tr.Name] > 1 {
			t.DuplicateInvocations++
		}
	}
	return t, nil
}

// WriteRecoveryTable renders the trials as an aligned table.
func WriteRecoveryTable(w io.Writer, ts []RecoveryTrial) error {
	if _, err := fmt.Fprintf(w, "%-12s %-7s %6s %6s %11s %9s %8s %7s %8s %5s %10s\n",
		"scheduling", "faults", "trial", "tasks", "crashAfter", "recorded", "skipped", "reexec", "vanished", "dups", "driveMatch"); err != nil {
		return err
	}
	for _, t := range ts {
		if _, err := fmt.Fprintf(w, "%-12s %-7t %6d %6d %11d %9d %8d %7d %8d %5d %10t\n",
			t.Scheduling, t.Faults, t.Trial, t.Tasks, t.CrashAfter,
			t.RecordedCompleted, t.SkippedInvocations, t.Reexecuted, t.Vanished,
			t.DuplicateInvocations, t.DriveMatch); err != nil {
			return err
		}
	}
	return nil
}
