package wfm

import (
	"slices"
	"sync"

	"wfserverless/internal/dag"
	"wfserverless/internal/memo"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfformat"
)

// MemoReport summarizes what the memo cache contributed to a run.
type MemoReport struct {
	// Hits is how many tasks were seeded as completed from the cache
	// (fingerprint matched and every recorded output verified on the
	// drive) and therefore never invoked.
	Hits int
	// Misses is how many tasks had no usable cache entry — unknown
	// fingerprint, or a hit whose outputs had vanished or diverged on
	// the drive (those re-run exactly like Resume's re-executed tasks).
	Misses int
	// SkippedOutputBytes sums the recorded output sizes of the hits:
	// the data volume this run did not have to recompute and republish.
	SkippedOutputBytes int64
	// CacheEntries is the cache's distinct-fingerprint count after the
	// run populated it.
	CacheEntries int
	// CacheRepaired reports that opening the cache found corruption and
	// truncated it back to a valid prefix (CacheDroppedBytes long lost);
	// a fully-foreign file degrades to a cold cache.
	CacheRepaired     bool
	CacheDroppedBytes int64
}

// memoState is one run's view of the memo cache: the per-task
// fingerprints resolved bottom-up over the CSR at prepare time, the
// probe's hit set, and the completion-side recorder. The probe runs
// once before any dispatch; the drain afterwards costs hit tasks
// nothing and executed tasks one manifest append each.
type memoState struct {
	cache   *memo.Cache
	p       *invocationPlan
	drive   sharedfs.Drive
	hasher  sharedfs.Hasher // content-address view of drive; nil if unsupported
	fps     []wfformat.Hash // by task ID
	hitIDs  []int32         // ascending
	misses  int
	skipped int64 // bytes of recorded outputs across hits

	mu      sync.Mutex
	scratch []memo.Output // manifest build buffer, reused under mu
}

// probeMemo resolves every task's fingerprint and probes the cache,
// marking as hits the tasks whose recorded outputs still verify on the
// shared drive. Tasks the journal already proved completed (rec) are
// the resume path's business and are skipped here.
func (m *Manager) probeMemo(csr *dag.CSR, p *invocationPlan, rec *recovery) *memoState {
	ms := &memoState{cache: m.opts.Memoize, p: p, drive: m.opts.Drive}
	ms.hasher, _ = m.opts.Drive.(sharedfs.Hasher)
	// External inputs are addressed through the drive when it already
	// holds the file (so content drift invalidates consumers) and
	// through the declared (name, size) pattern address otherwise (so a
	// fingerprint computed before staging equals one computed after —
	// probing happens before stageHeader runs).
	ext := func(name string, size int64) uint64 {
		if ms.hasher != nil {
			if h, ok := ms.hasher.ContentHash(name); ok {
				return h
			}
		}
		return sharedfs.ContentAddress(name, size)
	}
	ms.fps = wfformat.TaskFingerprints(csr, p.tasks, ext)
	// The probe splits like the fingerprints. A worker asks the cache for a
	// block of entries, then the drive for the outputs of the block's hits,
	// under one lock each; a block marks its slots of hits with the task's
	// ID or -1, so the hits compact out in ascending ID order. An entry
	// verifies if each output is on the drive and, on a content-addressed
	// drive, still carries the recorded address; if not, the producer
	// re-runs, as Resume re-runs tasks whose products vanished. Tasks the
	// journal proved completed are neither hits nor misses.
	hits := make([]int32, p.len())
	var mu sync.Mutex
	dag.Split(len(hits), func(lo, hi int) {
		var (
			misses  int
			skipped int64 // bytes of recorded outputs across hits
			outs    [probeBlock][]memo.Output
			found   [probeBlock]bool
			names   []string // the outputs of a block's entries, in task order
			hashes  []uint64
			present []bool
		)
		for at := lo; at < hi; at += probeBlock {
			n := min(probeBlock, hi-at)
			memo.LookupBlock(ms.cache, ms.fps[at:at+n], outs[:n], found[:n])
			names = slices.Grow(names[:0], n)
			for i := range n {
				hits[at+i] = -1
				if rec != nil && rec.doneSet[at+i] {
					outs[i], found[i] = nil, false
					continue
				}
				misses++ // until its outputs verify; outs[i] is nil on a miss
				for _, o := range outs[i] {
					names = append(names, o.Name)
				}
			}
			hashes = slices.Grow(hashes[:0], len(names))[:len(names)]
			present = slices.Grow(present[:0], len(names))[:len(names)]
			if ms.hasher != nil {
				ms.hasher.ContentHashes(names, hashes, present)
			} else {
				for k, name := range names {
					present[k] = ms.drive.Exists(name)
				}
			}
			k := 0
			for i, ok := range found[:n] {
				size := int64(0)
				for _, o := range outs[i] {
					ok = ok && present[k] && (ms.hasher == nil || o.Hash == 0 || hashes[k] == o.Hash)
					size, k = size+o.Size, k+1
				}
				if ok {
					hits[at+i], misses, skipped = int32(at+i), misses-1, skipped+size
				}
			}
		}
		mu.Lock()
		ms.misses, ms.skipped = ms.misses+misses, ms.skipped+skipped
		mu.Unlock()
	})
	ms.hitIDs = slices.DeleteFunc(hits, func(id int32) bool { return id < 0 })
	return ms
}

// probeBlock is the most tasks the probe reads from the cache, or whose
// outputs it checks on the drive, under one lock: a writer waits no longer.
const probeBlock = 1024

// put records a completed task's output manifest in the cache. Safe for
// concurrent workers.
func (ms *memoState) put(id int32, t *wfformat.Task) {
	ms.mu.Lock()
	ms.scratch = ms.scratch[:0]
	for _, f := range t.Files {
		if f.Link != wfformat.LinkOutput {
			continue
		}
		o := memo.Output{Name: f.Name, Size: f.SizeInBytes}
		if ms.hasher != nil {
			if h, ok := ms.hasher.ContentHash(f.Name); ok {
				o.Hash = h
			}
		}
		ms.scratch = append(ms.scratch, o)
	}
	ms.cache.Put(ms.fps[id], ms.scratch) // error sticky in the cache, surfaced at run end
	ms.mu.Unlock()
}

// report renders the run-level summary.
func (ms *memoState) report() *MemoReport {
	r := &MemoReport{
		Hits:               len(ms.hitIDs),
		Misses:             ms.misses,
		SkippedOutputBytes: ms.skipped,
		CacheEntries:       ms.cache.Len(),
	}
	r.CacheDroppedBytes, r.CacheRepaired = ms.cache.Recovered()
	return r
}
