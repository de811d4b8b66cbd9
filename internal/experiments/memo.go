package experiments

// The memo campaign: the acceptance experiment for content-addressed
// memoization and incremental re-execution. Each scheduling mode runs
// four variants over one persistent drive and memo cache, the way a
// scientist iterates on a workflow:
//
//	cold   — empty cache, everything executes, the cache fills.
//	rerun  — nothing changed: zero invocations, every task memoized.
//	edit1  — one task edited: exactly that task and its transitive
//	         descendants re-execute, nothing else.
//	editk  — k further tasks edited: exactly the union of their
//	         descendant closures re-executes.
//
// The cache is reopened for every variant, so each probe exercises the
// on-disk format, not a warm in-memory index.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"wfserverless/internal/wfm"
)

func newMemo(cfg Config) (*campaign, error) {
	cfg = cfg.or(Config{Tasks: 400, Width: 32, Edits: 8, Seed: 11, Parallel: 64, TimeScale: 0.002})
	w, _, err := synthetic("", "random", cfg.Tasks, cfg.Width, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// The descendant closure is pure DAG structure, which edits do not
	// change, so one compile serves every variant's prediction.
	csr, _, err := w.Compile()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, csr.Len())
	children := make(map[string][]string, csr.Len())
	for _, id := range csr.TopoOrder() {
		names = append(names, csr.Name(id))
		for _, ch := range csr.Children(id) {
			children[csr.Name(id)] = append(children[csr.Name(id)], csr.Name(ch))
		}
	}
	sort.Strings(names)
	closure := func(roots []string) map[string]bool {
		out := make(map[string]bool)
		for stack := slices.Clone(roots); len(stack) > 0; {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !out[n] {
				out[n] = true
				stack = append(stack, children[n]...)
			}
		}
		return out
	}
	// The two edit sets are disjoint: edit1's task keeps its (already
	// cached) edited fingerprint through editk, so only the fresh
	// edits' closure re-executes there.
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(len(names))
	k := min(cfg.Edits, len(names)-1)
	edits := map[string][]string{"edit1": {names[perm[0]]}}
	for _, i := range perm[1 : 1+k] {
		edits["editk"] = append(edits["editk"], names[i])
	}

	c := &campaign{
		title: fmt.Sprintf("Memoization: %d-task workflow, cold / rerun / edit1 / edit%d", cfg.Tasks, cfg.Edits),
		opts:  cfg.manager(wfm.Options{Retries: 8, RetryBackoff: 0.2, TaskTimeout: 60}),
		cells: modes(Cell{Variant: "cold"}, Cell{Variant: "rerun"}, Cell{Variant: "edit1"}, Cell{Variant: "editk"}),
		columns: []column{
			modeCol,
			{"variant", -7, func(r *Row) any { return r.Variant }},
			tasksCol,
			{"edited", 7, func(r *Row) any { return r.Edited }},
			{"expected", 9, func(r *Row) any { return r.Expected }},
			{"invoked", 8, func(r *Row) any { return r.Invoked }},
			{"hits", 7, func(r *Row) any { return r.Hits }},
			{"misses", 7, func(r *Row) any { return r.Misses }},
			{"skippedBytes", 13, func(r *Row) any { return r.SkippedBytes }},
			{"exact", 6, func(r *Row) any { return r.Exact }},
			driveCol,
			{"wall", 10, func(r *Row) any { return r.Wall.Round(time.Millisecond) }},
		},
		gates: []gate{invokedSet, memoHits, driveMatches},
	}

	var e *env // one world per mode, shared by its four variants
	c.measure = func(ctx context.Context, cl Cell) (r Row, err error) {
		if cl.Variant == "cold" {
			if e, err = newEnv(envSpec{w: w.Clone()}); err != nil {
				return r, err
			}
		}
		defer func() {
			if err != nil || cl.Variant == "editk" {
				e.close()
			}
		}()
		for _, name := range edits[cl.Variant] {
			e.w.Tasks[name].Command.Arguments[0].CPUWork++
		}
		expect := map[string]bool{}
		switch cl.Variant {
		case "cold":
			expect = closure(names)
		case "edit1", "editk":
			expect = closure(edits[cl.Variant])
		}
		cache, err := e.cache()
		if err != nil {
			return r, err
		}
		defer cache.Close()
		o := c.opts
		o.Scheduling, o.Memoize = cl.Mode, cache
		before := e.stub.Counts()
		start := time.Now()
		res, err := e.run(ctx, o)
		if err != nil {
			return r, fmt.Errorf("experiments: memo %s: %w", cl, err)
		}
		r = Row{Tasks: cfg.Tasks, Edited: len(edits[cl.Variant]), Expected: len(expect), Wall: time.Since(start)}
		r.Invoked, r.Exact = invoked(before, e.stub.Counts(), expect)
		if res.Memo != nil {
			r.Hits, r.Misses, r.SkippedBytes = int(res.Memo.Hits), int(res.Memo.Misses), res.Memo.SkippedOutputBytes
		}
		// The reference: the same workflow state from scratch.
		ref, err := c.reference(ctx, envSpec{w: e.w.Clone()}, cl.Mode)
		if err != nil {
			return r, err
		}
		r.DriveMatch = slices.Equal(ref, e.drive.List())
		return r, nil
	}
	return c, nil
}
