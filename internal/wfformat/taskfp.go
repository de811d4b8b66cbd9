package wfformat

import (
	"sync"

	"wfserverless/internal/dag"
)

// TaskFingerprints computes a content fingerprint per task of a
// compiled workflow, ID-aligned with the CSR. A task's fingerprint
// changes iff the task itself or one of its ancestors changed: each
// fingerprint chains the task's local content digest with its parents'
// fingerprints (in the CSR's canonical parent order), so an edit
// anywhere upstream propagates to every descendant in one O(V+E)
// bottom-up pass over the topological order — no transitive input
// walk per task.
//
// The local digest covers the same per-task fields as the
// whole-workflow Fingerprint — type, category, cores, runtime,
// program, the WfBench argument block, and the file set with sizes,
// all in canonical sorted order — but not the Parents/Children name
// lists: dependency structure is covered transitively through the
// chained parent fingerprints. Deployment- and instance-scoped fields
// (api_url, ID, StartedAt) stay excluded, so the same workflow
// retargeted at a different platform deployment hits the same cache
// entries.
//
// External inputs — input files no task of the workflow produces — are
// folded in through ext, which maps a declared (name, size) to the
// file's content address. Callers with a drive pass a closure that
// consults sharedfs.Hasher for files already present (so a drive file
// whose content diverged from the declaration invalidates its
// consumers) and falls back to sharedfs.ContentAddress otherwise (so a
// fingerprint computed before staging equals one computed after). A
// nil ext hashes the declared size alone.
//
// The pass goes level by level: no edge joins two tasks of one level, so
// a wide level is hashed by dag.Split's workers, each with a digester of
// its own, to the same bytes. ext must be safe for concurrent use.
func TaskFingerprints(c *dag.CSR, tasks []*Task, ext func(name string, size int64) uint64) []Hash {
	fps := make([]Hash, len(tasks))
	// A file a task reads and no task writes is an external input. The
	// writer is most often a parent, whose files are compared first (a
	// few dozen at most); else the set of every output answers, built on
	// first need — a fan-out re-run never builds it.
	var produced map[string]struct{}
	var once sync.Once
	isProduced := func(id int32, name string) bool {
		budget := 32
	parents:
		for _, pid := range c.Parents(id) {
			for _, f := range tasks[pid].Files {
				if budget--; budget < 0 {
					break parents
				} else if f.Link == LinkOutput && f.Name == name {
					return true
				}
			}
		}
		once.Do(func() {
			produced = make(map[string]struct{}, len(tasks))
			for _, t := range tasks {
				for _, f := range t.Files {
					if f.Link == LinkOutput {
						produced[f.Name] = struct{}{}
					}
				}
			}
		})
		_, ok := produced[name]
		return ok
	}
	d := newDigester()
	var level []int32
	hash := func(lo, hi int) {
		dd := d // the chunk at 0 runs on this goroutine
		if lo > 0 {
			dd = newDigester()
		}
		for _, id := range level[lo:hi] {
			t := tasks[id]
			// External-input content addresses, in the file set's
			// canonical (link, name) order.
			for _, f := range dd.task(t, false) {
				if f.Link != LinkInput || isProduced(id, f.Name) {
					continue
				}
				dd.str(f.Name)
				if ext != nil {
					dd.num(ext(f.Name, f.SizeInBytes))
				} else {
					dd.num(uint64(f.SizeInBytes))
				}
			}
			// Chain the parents' fingerprints. CSR parent views are
			// sorted by ID, and IDs are interned in sorted-name order, so
			// the chain order is canonical regardless of input slice
			// ordering.
			parents := c.Parents(id)
			dd.num(uint64(len(parents)))
			for _, pid := range parents {
				dd.hash(&fps[pid])
			}
			fps[id] = dd.sum()
		}
	}
	topo := c.TopoOrder()
	for lo, hi := 0, 0; lo < len(topo); lo = hi {
		for hi = lo + 1; hi < len(topo) && c.Level(topo[hi]) == c.Level(topo[lo]); hi++ {
		}
		level = topo[lo:hi]
		dag.Split(len(level), hash)
	}
	return fps
}
