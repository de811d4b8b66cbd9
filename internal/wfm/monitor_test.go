package wfm

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
)

// The monitor's per-event feed, for tests that set a state by hand: each
// helper hands the monitor the transition a run emits for the event.

func (mo *Monitor) runStarted(workflow string, s Scheduling, total int) {
	mo.on(transition{kind: tRunStart, id: -1, n: total, res: &Result{Workflow: workflow, Scheduling: s}})
}

func (mo *Monitor) taskReady(n int) { mo.on(transition{kind: tReady, id: -1, n: n}) }
func (mo *Monitor) taskStarted()    { mo.on(transition{kind: tStart, tr: &TaskResult{}}) }
func (mo *Monitor) taskSkipped()    { mo.on(transition{kind: tSkipped}) }
func (mo *Monitor) retried()        { mo.on(transition{kind: tRetry, n: 2}) }

func (mo *Monitor) taskFinished(wall time.Duration, failed bool) {
	t := transition{kind: tDone, tr: &TaskResult{End: wall, Attempts: 1}}
	if failed {
		t.kind, t.tr.Err = tFailed, errors.New("failed")
	}
	mo.on(t)
}

func (mo *Monitor) memoProbed(hits, misses int) {
	mo.on(transition{kind: tMemoProbe, id: -1, memo: &memoState{hitIDs: make([]int32, hits), misses: misses}})
}

func (mo *Monitor) breakerChanged(from, to string) {
	mo.on(transition{kind: tBreaker, id: -1, bt: &BreakerTransition{From: from, To: to}})
}

func (mo *Monitor) stragglerFlagged()  { mo.on(transition{kind: tStraggler, id: -1}) }
func (mo *Monitor) stragglerResolved() { mo.on(transition{kind: tStragglerResolved, id: -1}) }
func (mo *Monitor) speculated()        { mo.on(transition{kind: tSpeculate}) }
func (mo *Monitor) speculationWon()    { mo.on(transition{kind: tSpeculateWin}) }

// TestMonitorWriteMetricsGolden pins one exposition line per counter and
// gauge the monitor owns, with deterministic values fed as transitions.
func TestMonitorWriteMetricsGolden(t *testing.T) {
	mo := NewMonitor()
	mo.runStarted("demo", ScheduleDependency, 7)
	mo.taskReady(3)
	mo.taskStarted()                    // ready 2, running 1
	mo.taskFinished(time.Second, false) // done 1
	mo.taskStarted()                    // ready 1, running 1
	mo.taskFinished(time.Second, true)  // failed 1
	mo.taskSkipped()                    // failed 2
	mo.retried()
	mo.retried()
	mo.breakerChanged(BreakerClosed, BreakerOpen)
	mo.memoProbed(4, 3)
	mo.stragglerFlagged()
	mo.stragglerFlagged()
	mo.stragglerResolved()
	mo.speculated()
	mo.speculationWon()

	var sb strings.Builder
	if err := mo.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, line := range []string{
		`wfm_workflow_info{workflow="demo",scheduling="dependency"} 1`,
		"wfm_tasks_total 7",
		"wfm_tasks_ready 1",
		"wfm_tasks_running 0",
		"wfm_tasks_done_total 1",
		"wfm_tasks_failed_total 2",
		"wfm_invocation_retries_total 2",
		"wfm_breakers_open 1",
		"wfm_memo_hits_total 4",
		"wfm_memo_misses_total 3",
		"wfm_stragglers 1",
		"wfm_stragglers_flagged_total 2",
		"wfm_speculative_retries_total 1",
		"wfm_speculative_wins_total 1",
		"wfm_invocation_seconds_count 2",
	} {
		if !strings.Contains(body, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, body)
		}
	}
	// Exposition hygiene: every sample line's family carries HELP/TYPE.
	for _, fam := range []string{"wfm_stragglers", "wfm_speculative_retries_total", "wfm_speculative_wins_total"} {
		if !strings.Contains(body, "# TYPE "+fam+" ") || !strings.Contains(body, "# HELP "+fam+" ") {
			t.Fatalf("family %s lacks HELP/TYPE metadata", fam)
		}
	}
}

// TestMonitorNilWriteMetrics pins the nil-receiver contract of the read
// side: a nil monitor writes nothing and returns nil, instead of emitting
// a page of zero-valued series for a plane that is off. (A nil monitor is
// never fed: a run without one has no monitor sink.)
func TestMonitorNilWriteMetrics(t *testing.T) {
	var mo *Monitor
	var sb strings.Builder
	if err := mo.WriteMetrics(&sb); err != nil {
		t.Fatalf("nil WriteMetrics error: %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil monitor wrote %d bytes:\n%s", sb.Len(), sb.String())
	}
	if s := mo.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

// TestMonitorCumulativeAcrossRuns pins Prometheus counter semantics: a
// monitor outliving two runs accumulates counters, while runStarted only
// swaps the identity gauge.
func TestMonitorCumulativeAcrossRuns(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, time.Millisecond)
	mo := NewMonitor()
	m := fastManager(t, drive, func(o *Options) {
		o.Monitor = mo
		o.Scheduling = ScheduleDependency
	})
	for i := 0; i < 2; i++ {
		if _, err := m.Run(context.Background(), fanoutWorkflow(t, 4, srv.URL)); err != nil {
			t.Fatal(err)
		}
	}
	s := mo.Snapshot()
	if s.Done != 12 { // 2 runs × (root + 4 + sink)
		t.Fatalf("done = %d after two runs, want 12 (cumulative)", s.Done)
	}
	if s.Workflow != "fanout-4" || s.Total != 6 {
		t.Fatalf("identity gauge: %+v", s)
	}
	if s.Ready != 0 || s.Running != 0 {
		t.Fatalf("gauges did not return to zero: %+v", s)
	}
}

// TestMonitorConcurrentHooks hammers every transition from racing goroutines
// while readers snapshot and scrape; run under -race this is the
// data-race proof for the whole monitor surface.
func TestMonitorConcurrentHooks(t *testing.T) {
	mo := NewMonitor()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				mo.taskReady(1)
				mo.taskStarted()
				mo.taskFinished(time.Millisecond, i%5 == 0)
				mo.retried()
				mo.breakerChanged(BreakerClosed, BreakerOpen)
				mo.breakerChanged(BreakerOpen, BreakerClosed)
				mo.memoProbed(1, 1)
				mo.stragglerFlagged()
				mo.stragglerResolved()
				mo.speculated()
				mo.speculationWon()
				if i%50 == 0 {
					mo.runStarted("race", SchedulePhases, i)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := mo.WriteMetrics(&sb); err != nil {
				t.Error(err)
				return
			}
			mo.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := mo.Snapshot()
	if s.Retries != 8*300 || s.SpecWins != 8*300 {
		t.Fatalf("lost updates: %+v", s)
	}
	if s.Stragglers != 0 || s.OpenBreak != 0 {
		t.Fatalf("gauges unbalanced: %+v", s)
	}
}
