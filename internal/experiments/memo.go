package experiments

// This file implements the memoization campaign: the acceptance
// experiment for content-addressed task memoization and incremental
// re-execution. Each scheduling mode runs a four-variant sequence over
// one persistent drive + memo cache, modelling how a scientist iterates
// on a workflow:
//
//	cold   — empty cache, everything executes, the cache fills.
//	rerun  — nothing changed: zero invocations, every task memoized.
//	edit1  — one task edited: exactly that task and its transitive
//	         descendants re-execute, nothing else.
//	editk  — k further tasks edited: exactly the union of their
//	         descendant closures re-executes.
//
// Every variant checks two invariants against ground truth from the
// counting stub: the re-invoked set equals the predicted edit closure
// EXACTLY (no stragglers, no spurious re-runs), and the final drive
// state matches an uninterrupted from-scratch run of the same
// (edited) workflow on a fresh drive.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"wfserverless/internal/memo"
	"wfserverless/internal/wfm"
)

// MemoConfig parameterizes the memoization campaign.
type MemoConfig struct {
	// Tasks is the synthetic workflow size (default 400).
	Tasks int
	// Width is tasks per layer of the random DAG shape (default 32).
	Width int
	// EditTasks is k for the k-edit variant (default 8).
	EditTasks int
	// Seed drives the DAG shape and the edit choices.
	Seed int64
	// MaxParallel bounds simultaneous invocations (default 64).
	MaxParallel int
	// TimeScale compresses nominal seconds (default 0.002).
	TimeScale float64
	// Batching runs the campaign through the batched invocation
	// pipeline; memoization sits above the transport, so the edit-scope
	// invariants must hold identically.
	Batching wfm.BatchOptions
}

func (c MemoConfig) withDefaults() MemoConfig {
	if c.Tasks == 0 {
		c.Tasks = 400
	}
	if c.Width == 0 {
		c.Width = 32
	}
	if c.EditTasks == 0 {
		c.EditTasks = 8
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.MaxParallel == 0 {
		c.MaxParallel = 64
	}
	if c.TimeScale == 0 {
		c.TimeScale = 0.002
	}
	return c
}

// MemoMeasurement reports one variant of the campaign.
type MemoMeasurement struct {
	Scheduling string
	Variant    string
	Tasks      int

	// Edited is how many tasks were perturbed before this run;
	// Expected is the size of their descendant closure — the exact
	// number of invocations an incremental engine should issue.
	Edited   int
	Expected int
	// Invocations is what the stub actually saw during this run.
	Invocations int

	// From the run's MemoReport.
	Hits         int
	Misses       int
	SkippedBytes int64

	// Exact reports the re-invoked task set equals the predicted edit
	// closure, member for member.
	Exact bool
	// DriveMatch reports the drive equals a from-scratch reference run
	// of the same workflow state.
	DriveMatch bool

	Wall time.Duration
}

// Memo runs the campaign in both scheduling modes.
func Memo(ctx context.Context, cfg MemoConfig) ([]MemoMeasurement, error) {
	cfg = cfg.withDefaults()
	var out []MemoMeasurement
	for _, mode := range []wfm.Scheduling{wfm.SchedulePhases, wfm.ScheduleDependency} {
		ms, err := memoSequence(ctx, cfg, mode)
		if err != nil {
			return out, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// memoSequence runs cold → rerun → edit1 → editk over one drive and
// one cache file, reopening the cache between variants so every probe
// exercises the durable on-disk format, not a warm in-memory index.
func memoSequence(ctx context.Context, cfg MemoConfig, mode wfm.Scheduling) ([]MemoMeasurement, error) {
	rcfg := RecoveryConfig{
		Tasks: cfg.Tasks, Width: cfg.Width, Seed: cfg.Seed,
		MaxParallel: cfg.MaxParallel, TimeScale: cfg.TimeScale, Batching: cfg.Batching,
	}
	env, err := newRecoveryEnv(rcfg, false, 0)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	dir, err := os.MkdirTemp("", "wfm-memo-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cachePath := filepath.Join(dir, "memo.cache")

	// The descendant closure is pure DAG structure; edits don't change
	// it, so one compile serves every variant's prediction.
	csr, _, err := env.w.Compile()
	if err != nil {
		return nil, err
	}
	children := make(map[string][]string, csr.Len())
	names := make([]string, 0, csr.Len())
	for _, id := range csr.TopoOrder() {
		names = append(names, csr.Name(id))
		for _, ch := range csr.Children(id) {
			children[csr.Name(id)] = append(children[csr.Name(id)], csr.Name(ch))
		}
	}
	sort.Strings(names)
	closure := func(roots []string) map[string]bool {
		out := make(map[string]bool)
		stack := append([]string(nil), roots...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if out[n] {
				continue
			}
			out[n] = true
			stack = append(stack, children[n]...)
		}
		return out
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	edit := func(name string) {
		env.w.Tasks[name].Command.Arguments[0].CPUWork += 1
	}
	// The edit sets of the two edit variants are disjoint: edit1's task
	// keeps its (already cached) edited fingerprint through editk, so
	// only the fresh edits' closure re-executes there.
	perm := rng.Perm(len(names))
	edit1Set := []string{names[perm[0]]}
	k := cfg.EditTasks
	if k > len(names)-1 {
		k = len(names) - 1
	}
	editkSet := make([]string, 0, k)
	for _, i := range perm[1 : 1+k] {
		editkSet = append(editkSet, names[i])
	}

	variants := []struct {
		name  string
		edits []string
	}{
		{"cold", nil},
		{"rerun", nil},
		{"edit1", edit1Set},
		{"editk", editkSet},
	}

	var out []MemoMeasurement
	for i, v := range variants {
		for _, name := range v.edits {
			edit(name)
		}
		var expect map[string]bool
		switch {
		case v.name == "cold":
			expect = closure(names) // everything
		case len(v.edits) == 0:
			expect = map[string]bool{}
		default:
			expect = closure(v.edits)
		}
		m, err := memoVariant(ctx, rcfg, mode, env, cachePath, v.name, len(v.edits), expect)
		if err != nil {
			return out, fmt.Errorf("experiments: memo %s variant %d (%s): %w", mode, i, v.name, err)
		}
		out = append(out, *m)
	}
	return out, nil
}

// memoVariant runs the workflow's current state once against the cache
// file and checks the exact-edit-scope and drive-convergence invariants.
func memoVariant(ctx context.Context, rcfg RecoveryConfig, mode wfm.Scheduling, env *recoveryEnv,
	cachePath, variant string, edited int, expect map[string]bool) (*MemoMeasurement, error) {
	c, err := memo.Open(cachePath)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	mgr, err := recoveryManager(rcfg, mode, env, nil, c, nil)
	if err != nil {
		return nil, err
	}
	before := env.stub.Counts()
	start := time.Now()
	res, err := mgr.Run(ctx, env.w)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	after := env.stub.Counts()

	invoked := make(map[string]bool)
	total := 0
	for name, n := range after {
		if d := n - before[name]; d > 0 {
			invoked[name] = true
			total += d
		}
	}
	exact := len(invoked) == len(expect) && total == len(expect)
	for name := range expect {
		if !invoked[name] {
			exact = false
		}
	}

	// Reference: the same workflow state from scratch on a fresh world.
	ref, err := memoReference(ctx, rcfg, mode, env)
	if err != nil {
		return nil, err
	}

	m := &MemoMeasurement{
		Scheduling:  mode.String(),
		Variant:     variant,
		Tasks:       rcfg.Tasks,
		Edited:      edited,
		Expected:    len(expect),
		Invocations: total,
		Exact:       exact,
		DriveMatch:  slices.Equal(ref, env.drive.List()),
		Wall:        wall,
	}
	if res.Memo != nil {
		m.Hits = int(res.Memo.Hits)
		m.Misses = int(res.Memo.Misses)
		m.SkippedBytes = res.Memo.SkippedOutputBytes
	}
	return m, nil
}

// memoReference runs the env's current workflow state uninterrupted on
// a fresh drive (no cache) and returns the resulting drive listing.
// Edits are replayed onto the fresh env by copying the live CPUWork
// values, so the reference reflects exactly the state under test.
func memoReference(ctx context.Context, rcfg RecoveryConfig, mode wfm.Scheduling, env *recoveryEnv) ([]string, error) {
	ref, err := newRecoveryEnv(rcfg, false, 0)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for name, t := range env.w.Tasks {
		ref.w.Tasks[name].Command.Arguments[0].CPUWork = t.Command.Arguments[0].CPUWork
	}
	m, err := recoveryManager(rcfg, mode, ref, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if _, err := m.Run(ctx, ref.w); err != nil {
		return nil, fmt.Errorf("memo reference: %w", err)
	}
	return ref.drive.List(), nil
}

// WriteMemoTable renders the measurements as an aligned table.
func WriteMemoTable(w io.Writer, ms []MemoMeasurement) error {
	if _, err := fmt.Fprintf(w, "%-12s %-7s %6s %7s %9s %8s %7s %7s %13s %6s %10s %10s\n",
		"scheduling", "variant", "tasks", "edited", "expected", "invoked", "hits", "misses", "skippedBytes", "exact", "driveMatch", "wall"); err != nil {
		return err
	}
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "%-12s %-7s %6d %7d %9d %8d %7d %7d %13d %6t %10t %10s\n",
			m.Scheduling, m.Variant, m.Tasks, m.Edited, m.Expected, m.Invocations,
			m.Hits, m.Misses, m.SkippedBytes, m.Exact, m.DriveMatch, m.Wall.Round(time.Millisecond)); err != nil {
			return err
		}
	}
	return nil
}
