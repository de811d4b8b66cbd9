package wfm

import (
	"io"
	"sync"
	"sync/atomic"

	"wfserverless/internal/metrics"
)

// Monitor is the manager's live telemetry plane: a set of counters and
// gauges a run's transitions update with plain atomics (Monitor.on, in
// transition.go), exposed in Prometheus text format, so an operator can
// watch a run drain (`curl /metrics` on the -telemetry-addr listener)
// without touching its performance. Its read side is safe on a nil
// *Monitor.
//
// A Monitor may outlive individual runs (the cmd/wfm listener starts
// before the workflow does); counters are cumulative across runs,
// matching Prometheus counter semantics.
type Monitor struct {
	mu         sync.Mutex
	workflow   string
	scheduling string
	total      int64

	ready   atomic.Int64 // released by the scheduler, not yet invoking
	running atomic.Int64 // gate granted, HTTP invocation in flight
	done    atomic.Int64 // completed successfully
	failed  atomic.Int64 // terminal failures, including skipped descendants
	retries atomic.Int64 // extra invocation attempts beyond the first

	breakersOpen atomic.Int64

	memoHits   atomic.Int64 // tasks seeded from the memo cache, never invoked
	memoMisses atomic.Int64 // tasks probed without a usable cache entry

	stragglers      atomic.Int64 // in-flight attempts currently flagged
	stragglersTotal atomic.Int64 // attempts ever flagged
	specRetries     atomic.Int64 // backup attempts dispatched for flagged tasks
	specWins        atomic.Int64 // flagged tasks whose backup finished first

	latency metrics.Histogram // wall seconds per completed task invocation
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// Snapshot is a point-in-time view of the monitor's state.
type Snapshot struct {
	Workflow        string
	Scheduling      string
	Total           int64
	Ready           int64
	Running         int64
	Done            int64
	Failed          int64
	Retries         int64
	OpenBreak       int64
	MemoHits        int64
	MemoMisses      int64
	Stragglers      int64
	StragglersTotal int64
	SpecRetries     int64
	SpecWins        int64
}

// Snapshot returns the current progress counters.
func (mo *Monitor) Snapshot() Snapshot {
	if mo == nil {
		return Snapshot{}
	}
	mo.mu.Lock()
	s := Snapshot{Workflow: mo.workflow, Scheduling: mo.scheduling, Total: mo.total}
	mo.mu.Unlock()
	s.Ready = mo.ready.Load()
	s.Running = mo.running.Load()
	s.Done = mo.done.Load()
	s.Failed = mo.failed.Load()
	s.Retries = mo.retries.Load()
	s.OpenBreak = mo.breakersOpen.Load()
	s.MemoHits = mo.memoHits.Load()
	s.MemoMisses = mo.memoMisses.Load()
	s.Stragglers = mo.stragglers.Load()
	s.StragglersTotal = mo.stragglersTotal.Load()
	s.SpecRetries = mo.specRetries.Load()
	s.SpecWins = mo.specWins.Load()
	return s
}

// WriteMetrics writes the monitor's state in Prometheus text exposition
// format. A nil monitor writes nothing.
func (mo *Monitor) WriteMetrics(w io.Writer) error {
	if mo == nil {
		return nil
	}
	s := mo.Snapshot()
	x := metrics.NewWriter(w)
	x.Family("wfm_workflow_info", "gauge", "Identity of the workflow run feeding these metrics.")
	x.Sample("wfm_workflow_info", 1, "workflow", s.Workflow, "scheduling", s.Scheduling)
	for _, f := range []struct {
		name, typ, help string
		v               int64
	}{
		{"wfm_tasks_total", "gauge", "Tasks in the current workflow.", s.Total},
		{"wfm_tasks_ready", "gauge", "Tasks released by the scheduler, not yet invoking.", s.Ready},
		{"wfm_tasks_running", "gauge", "Tasks with an HTTP invocation in flight.", s.Running},
		{"wfm_tasks_done_total", "counter", "Tasks completed successfully.", s.Done},
		{"wfm_tasks_failed_total", "counter", "Tasks failed terminally, including skipped descendants.", s.Failed},
		{"wfm_invocation_retries_total", "counter", "Invocation attempts beyond each task's first.", s.Retries},
		{"wfm_breakers_open", "gauge", "Circuit breakers currently open.", s.OpenBreak},
		{"wfm_memo_hits_total", "counter", "Tasks seeded from the memo cache, never invoked.", s.MemoHits},
		{"wfm_memo_misses_total", "counter", "Tasks probed without a usable memo-cache entry.", s.MemoMisses},
		{"wfm_stragglers", "gauge", "In-flight attempts currently flagged past k x their endpoint's median.", s.Stragglers},
		{"wfm_stragglers_flagged_total", "counter", "Attempts flagged as stragglers.", s.StragglersTotal},
		{"wfm_speculative_retries_total", "counter", "Backup attempts dispatched for flagged tasks.", s.SpecRetries},
		{"wfm_speculative_wins_total", "counter", "Flagged tasks whose backup attempt completed first.", s.SpecWins},
	} {
		x.Single(f.name, f.typ, f.help, f.v)
	}
	x.Histogram("wfm_invocation_seconds", "Wall time per completed task invocation.", &mo.latency)
	return x.Err()
}
