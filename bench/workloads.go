package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// workload is one set of inputs the benchmark runs. A value serves one
// set-up; setting up again takes a fresh value and a fresh env.
type workload interface {
	// generate makes the inputs from the seed; the program sees only
	// the generated inputs.
	generate(seed int64, sz sizes) error
	// firstRun runs the workload once, cold. It is the last part of
	// set-up, and for memo_rerun it is the run that fills the cache.
	firstRun() error
	// timed is the limit of the whole timed section.
	timed(seconds float64) limit
	// measure runs one timed section, closed loop.
	measure(l limit, traced bool) *measurement
	// unit is the smallest timed section, used for a warm-up and for
	// each half of an untraced/traced pair: one iteration, or for the
	// service a stretch of runs scaled to the run's seconds.
	unit(seconds float64) limit
	// check is the correctness gate, run outside the timed region. It
	// returns what is wrong; each entry is one failed operation.
	check() []string
	// subjects are the workload's own inputs, for the layer ladder.
	subjects() []*wfformat.Workflow
	// bareOptions are the workload's manager options with no journal
	// and no memo cache, for the ladder's stub rung.
	bareOptions() wfm.Options
	// ownLayers adds the per-layer numbers only a run of this workload
	// yields (task timings, journal counters, memo hit ratio, wfmd
	// figures). It runs after check.
	ownLayers(out map[string]float64)
	// close stops what the workload itself started.
	close()
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "recipes_http":
		return &recipesHTTP{single: single{e: e}}, nil
	case "fanout_batch_durable":
		return &fanoutDurable{single: single{e: e}}, nil
	case "memo_rerun":
		return &memoRerun{single: single{e: e}}, nil
	case "service_small_runs":
		return &serviceRuns{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// single is what the three one-manager-at-a-time workloads share: the
// workflows, the results of the latest iteration, and the tallies.
type single struct {
	e     *env
	wfs   []*wfformat.Workflow
	files [][]string // per workflow, for the untimed reset
	tasks int64      // per iteration

	last    []*wfm.Result // one per workflow, latest iteration
	lastErr error
}

func (s *single) setWorkflows(wfs []*wfformat.Workflow) {
	s.wfs = wfs
	s.tasks = 0
	s.files = s.files[:0]
	for _, w := range wfs {
		s.tasks += int64(w.Len())
		s.files = append(s.files, fileNames(w))
	}
}

func (s *single) subjects() []*wfformat.Workflow { return s.wfs }
func (s *single) unit(float64) limit             { return limit{iters: 1} }

// timed bounds the three single-manager workloads by wall time: their
// figures are per iteration, so the count need not be fixed.
func (s *single) timed(seconds float64) limit {
	return limit{d: time.Duration(seconds * float64(time.Second))}
}
func (s *single) close() {}

// clearDrive empties the shared drive so that every iteration starts,
// like a real run, with no product of an earlier one to find.
func (s *single) clearDrive() {
	for _, names := range s.files {
		for _, n := range names {
			s.e.drive.Remove(n)
		}
	}
}

// tracedRun is one Manager.Run as a wfm.run span; posts made meanwhile
// hang under it.
func (s *single) tracedRun(m *wfm.Manager, w *wfformat.Workflow) (*wfm.Result, error) {
	rec := s.e.rec
	id, start := rec.begin()
	if id != 0 {
		rec.run.Store(id)
	}
	res, err := m.Run(context.Background(), w)
	if id != 0 {
		rec.run.Store(0)
		rec.end(id, rec.trace.Load(), "wfm.run", start)
	}
	return res, err
}

// tally counts the latest iteration's operations: a task that failed,
// was skipped or never ran is a failed operation.
func (s *single) tally() (attempted, failed int64) {
	attempted = s.tasks
	if s.lastErr != nil || len(s.last) != len(s.wfs) {
		return attempted, attempted
	}
	for i, res := range s.last {
		failed += int64(s.wfs[i].Len()) - completedTasks(res)
	}
	return attempted, failed
}

func completedTasks(res *wfm.Result) int64 {
	if res == nil {
		return 0
	}
	var n int64
	for name, tr := range res.Tasks {
		if tr.Err == nil && name != wfm.HeaderName && name != wfm.TailName {
			n++
		}
	}
	return n
}

// checkOutputs is the gate every workload shares: the latest iteration
// ran clean and every declared output is on the drive at its size.
func (s *single) checkOutputs() []string {
	var bad []string
	if s.lastErr != nil {
		bad = append(bad, "run error: "+s.lastErr.Error())
	}
	if len(s.last) != len(s.wfs) {
		return append(bad, fmt.Sprintf("%d of %d workflows have a result", len(s.last), len(s.wfs)))
	}
	for i, w := range s.wfs {
		res := s.last[i]
		if len(res.Failed) > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d failed or skipped tasks, first %s", w.Name, len(res.Failed), res.Failed[0]))
		}
		if got := completedTasks(res); got != int64(w.Len()) {
			bad = append(bad, fmt.Sprintf("%s: %d of %d tasks completed", w.Name, got, w.Len()))
		}
	}
	return append(bad, missingOutputs(s.e, s.wfs)...)
}

// missingOutputs reports declared outputs absent from the drive or
// there at another size, at most a few. The workflows ran in the order
// given on one drive, and two recipes may declare an output of the same
// name, so a file is held to the size its last writer declared.
func missingOutputs(e *env, wfs []*wfformat.Workflow) []string {
	want := make(map[string]int64)
	for _, w := range wfs {
		for _, t := range w.Tasks {
			for _, f := range t.Files {
				if f.Link == wfformat.LinkOutput {
					want[f.Name] = f.SizeInBytes
				}
			}
		}
	}
	var bad []string
	for name, declared := range want {
		size, err := e.drive.Stat(name)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("output %s is not on the drive", name))
		case size != declared:
			bad = append(bad, fmt.Sprintf("output %s is %d bytes, declared %d", name, size, declared))
		}
		if len(bad) >= 5 {
			break
		}
	}
	return bad
}

// recipesHTTP is the paper's native mode: the seven recipes, phase by
// phase, one HTTP POST per function over loopback.
type recipesHTTP struct {
	single
	mgr *wfm.Manager
}

func (r *recipesHTTP) bareOptions() wfm.Options {
	opts := r.e.managerOptions()
	opts.Scheduling = wfm.SchedulePhases
	opts.MaxParallel = 8
	return opts
}

func (r *recipesHTTP) generate(seed int64, sz sizes) error {
	wfs, err := recipeWorkflows(seed, sz.RecipeTasks, r.e.url)
	if err != nil {
		return err
	}
	r.setWorkflows(wfs)
	r.mgr, err = wfm.New(r.bareOptions())
	return err
}

func (r *recipesHTTP) sweep() {
	r.last, r.lastErr = r.last[:0], nil
	for _, w := range r.wfs {
		res, err := r.tracedRun(r.mgr, w)
		if err != nil {
			r.lastErr = err
			return
		}
		r.last = append(r.last, res)
	}
}

func (r *recipesHTTP) firstRun() error {
	r.sweep()
	return r.lastErr
}

func (r *recipesHTTP) measure(l limit, traced bool) *measurement {
	return measureIterations(r.e, l, traced, 1, r.clearDrive, r.sweep, r.tally)
}

func (r *recipesHTTP) check() []string                  { return r.checkOutputs() }
func (r *recipesHTTP) ownLayers(out map[string]float64) { taskTimings(r.last, out) }

// batched are the manager options of the scale path, as the repo's own
// 100k-task benchmark sets them.
func batched(opts wfm.Options) wfm.Options {
	opts.Scheduling = wfm.ScheduleDependency
	opts.MaxParallel = 2048
	opts.Batching = wfm.BatchOptions{Enabled: true, MaxTasks: 512, Linger: wallSeconds(2 * time.Millisecond)}
	return opts
}

// fanoutDurable is the scale path: a wide fan-out, batched, with a
// fresh on-disk journal opened and closed inside every iteration.
type fanoutDurable struct {
	single
	iter    int
	dir     string // journal of the latest iteration
	prev    string // journal of the one before, removed untimed
	jstats  journal.Stats
	journal *journal.Journal
}

func (f *fanoutDurable) bareOptions() wfm.Options { return batched(f.e.managerOptions()) }

func (f *fanoutDurable) generate(seed int64, sz sizes) error {
	w, err := fanoutWorkflow(seed, sz.FanoutTasks, f.e.invokeURL())
	if err != nil {
		return err
	}
	f.setWorkflows([]*wfformat.Workflow{w})
	return nil
}

func (f *fanoutDurable) run() {
	rec := f.e.rec
	f.iter++
	f.prev = f.dir
	f.dir = filepath.Join(f.e.root, fmt.Sprintf("journal-%04d", f.iter))
	f.last, f.lastErr, f.journal = f.last[:0], nil, nil
	var j *journal.Journal
	rec.region("journal.open", rec.trace.Load(), func() {
		j, f.lastErr = journal.Open(f.dir, journal.Options{Sync: journal.SyncGroup})
	})
	if f.lastErr != nil {
		return
	}
	opts := f.bareOptions()
	opts.Journal = j
	m, err := wfm.New(opts)
	if err != nil {
		f.lastErr = err
		j.Close()
		return
	}
	res, err := f.tracedRun(m, f.wfs[0])
	rec.region("journal.close", rec.trace.Load(), func() {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	})
	f.journal = j
	if err != nil {
		f.lastErr = err
		return
	}
	f.last = append(f.last, res)
}

func (f *fanoutDurable) firstRun() error {
	f.run()
	return f.lastErr
}

// tallyJournal also drops the journal before the latest: only the
// latest is kept, for the replay check, and removing one is not part of
// a run.
func (f *fanoutDurable) tallyJournal() (int64, int64) {
	if f.prev != "" {
		os.RemoveAll(f.prev)
		f.prev = ""
	}
	if f.journal != nil {
		f.jstats = f.journal.Stats()
	}
	return f.tally()
}

func (f *fanoutDurable) measure(l limit, traced bool) *measurement {
	return measureIterations(f.e, l, traced, 3, f.clearDrive, f.run, f.tallyJournal)
}

// check adds to the shared gate that the latest journal replays to one
// completion per task and a clean run end.
func (f *fanoutDurable) check() []string {
	bad := f.checkOutputs()
	sum, err := wfm.ReadRunJournal(f.dir)
	if err != nil {
		return append(bad, "journal replay: "+err.Error())
	}
	if int64(sum.CompletedTasks) != f.tasks {
		bad = append(bad, fmt.Sprintf("journal replays to %d completions, want %d", sum.CompletedTasks, f.tasks))
	}
	if sum.Torn || len(sum.Ends) != 1 || sum.Ends[0].Status != "ok" || sum.Ends[0].Failed != 0 {
		bad = append(bad, fmt.Sprintf("journal does not end clean: torn=%v ends=%+v", sum.Torn, sum.Ends))
	}
	return bad
}

func (f *fanoutDurable) ownLayers(out map[string]float64) {
	taskTimings(f.last, out)
	n := float64(f.tasks)
	out["journal.records_per_task"] = float64(f.jstats.Appends) / n
	out["journal.bytes_per_task"] = float64(f.jstats.Bytes) / n
	out["journal.syncs_per_run"] = float64(f.jstats.Syncs)
	start := time.Now()
	if _, err := wfm.ReadRunJournal(f.dir); err == nil {
		out["journal.replay_ms"] = msSince(start)
	}
}

// memoRerun is the incremental path: the fan-out re-run unchanged
// against a populated cache. Each iteration opens the cache file, as a
// new process re-running a workflow would, runs, and closes it.
type memoRerun struct {
	single
	path      string
	populated int64 // platform requests after the cold run
	report    *wfm.MemoReport
}

func (m *memoRerun) bareOptions() wfm.Options { return batched(m.e.managerOptions()) }

func (m *memoRerun) generate(seed int64, sz sizes) error {
	w, err := fanoutWorkflow(seed, sz.FanoutTasks, m.e.invokeURL())
	if err != nil {
		return err
	}
	m.setWorkflows([]*wfformat.Workflow{w})
	m.path = filepath.Join(m.e.root, "memo.cache")
	return nil
}

func (m *memoRerun) run() {
	rec := m.e.rec
	m.last, m.lastErr, m.report = m.last[:0], nil, nil
	var cache *memo.Cache
	rec.region("memo.open", rec.trace.Load(), func() { cache, m.lastErr = memo.Open(m.path) })
	if m.lastErr != nil {
		return
	}
	opts := m.bareOptions()
	opts.Memoize = cache
	mgr, err := wfm.New(opts)
	if err != nil {
		m.lastErr = err
		cache.Close()
		return
	}
	res, err := m.tracedRun(mgr, m.wfs[0])
	rec.region("memo.close", rec.trace.Load(), func() {
		if cerr := cache.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		m.lastErr = err
		return
	}
	m.last = append(m.last, res)
	m.report = res.Memo
}

// firstRun is the cold run: every task misses, executes and is cached,
// so memo writes are part of set-up and memo reads part of each run.
func (m *memoRerun) firstRun() error {
	m.run()
	if m.lastErr == nil && (m.report == nil || int64(m.report.Misses) != m.tasks) {
		m.lastErr = fmt.Errorf("cold run did not miss on every task: %+v", m.report)
	}
	m.populated = m.e.plat.Requests()
	return m.lastErr
}

func (m *memoRerun) measure(l limit, traced bool) *measurement {
	return measureIterations(m.e, l, traced, 2, func() {}, m.run, m.tally)
}

// check adds that the re-run was served wholly from the cache: every
// task a hit and not one more request at the platform.
func (m *memoRerun) check() []string {
	bad := m.checkOutputs()
	if m.report == nil || int64(m.report.Hits) != m.tasks {
		bad = append(bad, fmt.Sprintf("re-run not fully memoized: %+v, want %d hits", m.report, m.tasks))
	}
	if got := m.e.plat.Requests(); got != m.populated {
		bad = append(bad, fmt.Sprintf("platform saw %d requests after the cold run's %d", got, m.populated))
	}
	return bad
}

func (m *memoRerun) ownLayers(out map[string]float64) {
	taskTimings(m.last, out)
	if r := m.report; r != nil && r.Hits+r.Misses > 0 {
		out["memo.hit_ratio"] = float64(r.Hits) / float64(r.Hits+r.Misses)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
