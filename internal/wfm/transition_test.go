package wfm

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/health"
	"wfserverless/internal/journal"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfformat"
)

var update = flag.Bool("update", false, "rewrite this package's testdata goldens from this tree")

// checkGolden compares got with the golden file at path (rewriting it
// under -update).
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestMonitorExpositionGolden pins WriteMetrics' bytes on a fixed state
// to a golden written before the monitor's exposition went through the
// shared family writer.
func TestMonitorExpositionGolden(t *testing.T) {
	mo := NewMonitor()
	mo.runStarted("demo", ScheduleDependency, 7)
	mo.taskReady(3)
	mo.taskStarted()
	mo.taskFinished(1500*time.Millisecond, false)
	mo.taskStarted()
	mo.taskFinished(3*time.Millisecond, true)
	mo.taskSkipped()
	mo.retried()
	mo.breakerChanged(BreakerClosed, BreakerOpen)
	mo.memoProbed(4, 3)
	mo.stragglerFlagged()
	mo.speculated()
	mo.speculationWon()
	var sb strings.Builder
	if err := mo.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/exposition.golden", sb.String())
}

// journalRecord is one task record of a run journal.
type journalRecord struct {
	kind    uint8
	id      int32
	skipped bool
}

// journalLives reads a run's journal records, through the fold, as the
// lives of the run: each starts at a run header or a resume marker and
// holds the task records one process wrote.
func journalLives(t *testing.T, recs []journal.Record) [][]journalRecord {
	t.Helper()
	var f fold
	var lives [][]journalRecord
	for _, r := range recs {
		s := f.apply(r)
		switch {
		case s.bad:
			t.Fatalf("journal record kind %d: undecodable payload", r.Kind)
		case s.life:
			lives = append(lives, nil)
		case s.task && len(lives) == 0:
			t.Fatalf("task record (kind %d) before any run header", r.Kind)
		case s.task:
			lives[len(lives)-1] = append(lives[len(lives)-1], journalRecord{kind: r.Kind, id: s.id, skipped: s.skipped})
		}
	}
	return lives
}

// checkTransitions holds the artifacts one run's sinks wrote — the
// journal in dir, the flight recorder (nil when off) and the monitor —
// to what every run keeps, whichever planes are on:
//   - within each journal life a task has at most one terminal record,
//     and no task-started follows it;
//   - the last life accounts every task exactly once: a terminal record
//     of its own or a completion of an earlier life, never both;
//   - the flight recorder's task-start, task-done and task-fail match the
//     last life's task-started, task-completed and unskipped task-failed;
//   - the monitor ends at done + failed == tasks − seeds with nothing
//     ready or running, and observed one invocation per started task.
func checkTransitions(t *testing.T, dir string, w *wfformat.Workflow, rec *health.FlightRecorder, mon *Monitor) {
	t.Helper()
	c, err := CompileRunnable(w)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	counts, seeds := checkLives(t, c, rep.Records)

	if rec != nil {
		got := map[uint8]map[string]int{}
		kinds := map[string]uint8{"task-start": recTaskStarted, "task-done": recTaskCompleted, "task-fail": recTaskFailed}
		for _, ev := range rec.Events() {
			if k, ok := kinds[ev.Kind]; ok {
				if got[k] == nil {
					got[k] = map[string]int{}
				}
				got[k][ev.Task]++
			}
		}
		for kind, name := range map[uint8]string{recTaskStarted: "task-start", recTaskCompleted: "task-done", recTaskFailed: "task-fail"} {
			if fmt.Sprint(got[kind]) != fmt.Sprint(counts[kind]) {
				t.Errorf("flight recorder %s per task %v, journal %v", name, got[kind], counts[kind])
			}
		}
	}

	if mon != nil {
		s := mon.Snapshot()
		if s.Ready != 0 || s.Running != 0 {
			t.Errorf("monitor ends with %d ready, %d running", s.Ready, s.Running)
		}
		if int(s.Done+s.Failed) != c.Len()-seeds {
			t.Errorf("monitor done %d + failed %d, want tasks %d - seeds %d", s.Done, s.Failed, c.Len(), seeds)
		}
		started := 0
		for _, n := range counts[recTaskStarted] {
			started += n
		}
		if n := mon.latency.Count(); n != uint64(started) {
			t.Errorf("monitor observed %d invocations, journal started %d tasks", n, started)
		}
	}
}

// checkLives holds a run's journal records to the journal half of
// checkTransitions and returns the last life's task records per kind
// and task (skipped failures left out) and the number of seeded tasks.
func checkLives(t *testing.T, c *Compiled, recs []journal.Record) (map[uint8]map[string]int, int) {
	t.Helper()
	lives := journalLives(t, recs)
	if len(lives) == 0 {
		t.Fatal("journal holds no run")
	}
	completedBefore := map[int32]bool{}
	var last map[int32]int
	counts := map[uint8]map[string]int{}
	for i, life := range lives {
		terminal := map[int32]int{}
		for _, r := range life {
			if r.kind == recTaskStarted {
				if terminal[r.id] > 0 {
					t.Errorf("life %d: task %s started after its terminal record", i, c.plan.tasks[r.id].Name)
				}
			} else if terminal[r.id]++; terminal[r.id] > 1 {
				t.Errorf("life %d: task %s has %d terminal records", i, c.plan.tasks[r.id].Name, terminal[r.id])
			}
			if i < len(lives)-1 {
				if r.kind == recTaskCompleted || r.kind == recTaskMemoized {
					completedBefore[r.id] = true
				}
				continue
			}
			kind := r.kind
			if kind == recTaskFailed && r.skipped {
				continue
			}
			if counts[kind] == nil {
				counts[kind] = map[string]int{}
			}
			counts[kind][c.plan.tasks[r.id].Name]++
		}
		last = terminal
	}
	seeds := 0
	for id := int32(0); int(id) < c.Len(); id++ {
		name := c.plan.tasks[id].Name
		switch {
		case completedBefore[id] && last[id] > 0:
			t.Errorf("task %s completed in an earlier life and has a terminal record in the last", name)
		case completedBefore[id]:
			seeds++
		case last[id] == 0:
			t.Errorf("task %s has no terminal record", name)
		}
	}
	seeds += len(counts[recTaskMemoized])
	return counts, seeds
}

// recorderTuples renders a flight recorder's events as one line per
// (kind, endpoint, attempt, detail) tuple, grouped by task in name order
// (run-level events first) and in recording order within a task. A
// straggler is timing: the watchdog records its flag while the flagged
// attempt already races its backup, so it is listed after its task's
// other events, without its age and median.
func recorderTuples(evs []health.Event, base string) string {
	byTask, flagged := map[string][]string{}, map[string][]string{}
	for _, ev := range evs {
		line := fmt.Sprintf("%s %s %d %s", ev.Kind, strings.TrimPrefix(ev.Endpoint, base), ev.Attempt, ev.Detail)
		if ev.Kind == "straggler" {
			flagged[ev.Task] = append(flagged[ev.Task], fmt.Sprintf("straggler %s %d", strings.TrimPrefix(ev.Endpoint, base), ev.Attempt))
			continue
		}
		byTask[ev.Task] = append(byTask[ev.Task], line)
	}
	for task, lines := range flagged {
		byTask[task] = append(byTask[task], lines...)
	}
	names := make([]string, 0, len(byTask))
	for name := range byTask {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		for _, line := range byTask[name] {
			fmt.Fprintf(&sb, "%s: %s\n", name, strings.TrimSpace(line))
		}
	}
	return sb.String()
}

// TestTransitionInvariants runs checkTransitions over the runs that reach
// the paths TestAttemptPathComposition does not: a fail-fast cancel (tasks
// that fail before they start), a gated run (tasks that wait for a slot)
// and a crashed journal + memo run resumed.
func TestTransitionInvariants(t *testing.T) {
	t.Run("fail-fast", func(t *testing.T) {
		forEachScheduling(t, func(t *testing.T, mode Scheduling) {
			drive := sharedfs.NewMem()
			srv, _, _ := stubService(t, drive, 2*time.Millisecond)
			w := fanoutWorkflow(t, 8, srv.URL)
			w.Tasks["f003"].Command.APIURL = failingServer(t).URL
			dir := t.TempDir()
			j := openJournal(t, dir)
			rec, mon := health.NewFlightRecorder(0), NewMonitor()
			m := journaledManager(t, drive, j, mode, func(o *Options) {
				o.MaxParallel = 2
				o.Health = &HealthOptions{Recorder: rec}
				o.Monitor = mon
			})
			if _, err := m.Run(context.Background(), w); err == nil {
				t.Fatal("run with a failing task succeeded")
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			checkTransitions(t, dir, w, rec, mon)
		})
	})

	t.Run("gated", func(t *testing.T) {
		forEachScheduling(t, func(t *testing.T, mode Scheduling) {
			drive := sharedfs.NewMem()
			srv, _, _ := stubService(t, drive, 2*time.Millisecond)
			w := fanoutWorkflow(t, 12, srv.URL)
			dir := t.TempDir()
			j := openJournal(t, dir)
			rec, mon := health.NewFlightRecorder(0), NewMonitor()
			m := journaledManager(t, drive, j, mode, func(o *Options) {
				o.MaxParallel = 8
				o.Gate = newCountingGate(2)
				o.Health = &HealthOptions{Recorder: rec}
				o.Monitor = mon
			})
			// Running counts the tasks holding a slot, never those waiting
			// for one.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if r := mon.Snapshot().Running; r > 2 {
						t.Errorf("monitor reads %d running through a 2-slot gate", r)
						return
					}
					select {
					case <-stop:
						return
					case <-time.After(200 * time.Microsecond):
					}
				}
			}()
			_, err := m.Run(context.Background(), w)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			checkTransitions(t, dir, w, rec, mon)
		})
	})

	t.Run("journal+memo resume", func(t *testing.T) {
		forEachScheduling(t, func(t *testing.T, mode Scheduling) {
			drive := sharedfs.NewMem()
			srv, _ := countingStub(t, drive)
			w := diamondWorkflow(t, 2, 3, srv.URL)
			cache := openCache(t, filepath.Join(t.TempDir(), "memo.cache"))
			defer cache.Close()
			dir := t.TempDir()

			j := openJournal(t, dir)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := journaledManager(t, drive, j, mode, func(o *Options) {
				o.Memoize = cache
				o.AfterTaskDone = func(done int) {
					if done >= 4 {
						cancel()
					}
				}
			})
			if _, err := m.Run(ctx, w); err == nil {
				t.Fatal("crashed run reported success")
			}
			j.Abort()

			j = openJournal(t, dir)
			rec, mon := health.NewFlightRecorder(0), NewMonitor()
			m = journaledManager(t, drive, j, mode, func(o *Options) {
				o.Memoize = cache
				o.Health = &HealthOptions{Recorder: rec}
				o.Monitor = mon
			})
			if _, err := m.Resume(context.Background(), w); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			checkTransitions(t, dir, w, rec, mon)
		})
	})
}

// TestPreCancelledRunObservesNoInvocation: a task that never got past its
// start (here: the run was cancelled before it began) is no invocation,
// so the invocation-latency histogram does not count it.
func TestPreCancelledRunObservesNoInvocation(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, 0)
	mon := NewMonitor()
	m := fastManager(t, drive, func(o *Options) {
		o.Scheduling = ScheduleDependency
		o.Monitor = mon
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := fanoutWorkflow(t, 4, srv.URL)
	if _, err := m.Run(ctx, w); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if n := mon.latency.Count(); n != 0 {
		t.Errorf("wfm_invocation_seconds_count = %d after a run that invoked nothing, want 0", n)
	}
	if s := mon.Snapshot(); s.Ready != 0 || s.Running != 0 || s.Done != 0 || int(s.Failed) != w.Len() {
		t.Errorf("monitor = %+v, want every task failed and nothing ready or running", s)
	}
}

// TestRunEndErrorsWarn: an append or flush that fails at the very end of
// a run — the run-end record, the memo cache's final flush — is reported
// like one that failed mid-run. Closing the journal or the cache on the
// last completion stands in for an EIO on the last fsync.
func TestRunEndErrorsWarn(t *testing.T) {
	for _, tc := range []struct {
		name, warning string
		mutate        func(o *Options, w *wfformat.Workflow)
	}{
		{"journal", "journal: appends failing", func(o *Options, w *wfformat.Workflow) {
			j := openJournal(t, t.TempDir())
			o.Journal = j
			o.AfterTaskDone = func(done int) {
				if done == w.Len() {
					j.Close()
				}
			}
		}},
		{"memo", "memo: cache appends failing", func(o *Options, w *wfformat.Workflow) {
			cache := openCache(t, filepath.Join(t.TempDir(), "memo.cache"))
			o.Memoize = cache
			o.AfterTaskDone = func(done int) {
				if done == w.Len() {
					cache.Close()
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drive := sharedfs.NewMem()
			srv, _ := countingStub(t, drive)
			w := chainWorkflow(t, 3, srv.URL)
			m := fastManager(t, drive, func(o *Options) {
				o.Scheduling = ScheduleDependency
				tc.mutate(o, w)
			})
			res, err := m.Run(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			for _, warning := range res.Warnings {
				if strings.HasPrefix(warning, tc.warning) {
					return
				}
			}
			t.Fatalf("warnings %q, want one starting %q", res.Warnings, tc.warning)
		})
	}
}
