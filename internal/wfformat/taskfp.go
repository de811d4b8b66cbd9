package wfformat

import "wfserverless/internal/dag"

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
func TaskFingerprints(c *dag.CSR, tasks []*Task, ext func(name string, size int64) uint64) []Hash {
	n := len(tasks)
	fps := make([]Hash, n)
	// Files produced by any task of the workflow; everything else a
	// task reads is an external input.
	produced := make(map[string]struct{}, n)
	for _, t := range tasks {
		for _, f := range t.Files {
			if f.Link == LinkOutput {
				produced[f.Name] = struct{}{}
			}
		}
	}
	d := newDigester()
	for _, id := range c.TopoOrder() {
		t := tasks[id]
		// External-input content addresses, in the file set's canonical
		// (link, name) order.
		files := d.task(t, false)
		for _, f := range files {
			if f.Link != LinkInput {
				continue
			}
			if _, ok := produced[f.Name]; ok {
				continue
			}
			d.str(f.Name)
			if ext != nil {
				d.num(ext(f.Name, f.SizeInBytes))
			} else {
				d.num(uint64(f.SizeInBytes))
			}
		}
		// Chain the parents' fingerprints. CSR parent views are sorted
		// by ID, and IDs are interned in sorted-name order, so the chain
		// order is canonical regardless of input slice ordering.
		parents := c.Parents(id)
		d.num(uint64(len(parents)))
		for _, pid := range parents {
			d.hash(&fps[pid])
		}
		fps[id] = d.sum()
	}
	return fps
}
