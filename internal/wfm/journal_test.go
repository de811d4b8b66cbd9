package wfm

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"wfserverless/internal/journal"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// countingStub executes tasks (writes declared outputs to the drive)
// and counts invocations per task name — the duplicate-invocation
// detector behind the crash-recovery tests.
func countingStub(t testing.TB, drive sharedfs.Drive) (*httptest.Server, func() map[string]int) {
	t.Helper()
	stub := wfbench.NewStub(drive, 0)
	srv := httptest.NewServer(wfbench.NewEndpoint(stub))
	srv.URL += "/wfbench" // what tests hand out as the api_url
	t.Cleanup(srv.Close)
	return srv, stub.Counts
}

func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func journaledManager(t *testing.T, drive sharedfs.Drive, j *journal.Journal, mode Scheduling, mutate func(*Options)) *Manager {
	t.Helper()
	return fastManager(t, drive, func(o *Options) {
		o.Journal = j
		o.Scheduling = mode
		if mutate != nil {
			mutate(o)
		}
	})
}

func TestJournaledRunRecordsLifecycle(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		drive := sharedfs.NewMem()
		srv, _ := countingStub(t, drive)
		w := diamondWorkflow(t, 2, 3, srv.URL)
		dir := t.TempDir()
		j := openJournal(t, dir)
		m := journaledManager(t, drive, j, mode, nil)
		if _, err := m.Run(context.Background(), w); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		sum, err := ReadRunJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Header == nil {
			t.Fatal("no run header")
		}
		if sum.Header.Workflow != w.Name {
			t.Fatalf("header workflow %q, want %q", sum.Header.Workflow, w.Name)
		}
		if got, want := sum.Header.Fingerprint, wfformat.Fingerprint(w).String(); got != want {
			t.Fatalf("header fingerprint %s, want %s", got, want)
		}
		n := w.Len()
		if sum.Header.TaskCount != n {
			t.Fatalf("header task count %d, want %d", sum.Header.TaskCount, n)
		}
		if sum.CompletedTasks != n {
			t.Fatalf("completed records for %d tasks, want %d", sum.CompletedTasks, n)
		}
		if sum.EventCounts["task-started"] != n {
			t.Fatalf("started records = %d, want %d", sum.EventCounts["task-started"], n)
		}
		if len(sum.Ends) != 1 || sum.Ends[0].Status != "ok" {
			t.Fatalf("run-end markers = %+v, want one ok", sum.Ends)
		}
	})
}

// crashAndResume runs w until crashAfter tasks complete, models process
// death (context cancel + journal Abort), then resumes from the journal
// on the surviving drive. It returns the resumed result and the per-task
// invocation counts of both processes.
func crashAndResume(t *testing.T, w *wfformat.Workflow, mode Scheduling, crashAfter int,
	drive sharedfs.Drive, srvURL string, snap func() map[string]int) (*Result, map[string]int, map[string]int, map[int32]int) {
	t.Helper()
	dir := t.TempDir()
	j := openJournal(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := journaledManager(t, drive, j, mode, func(o *Options) {
		o.AfterTaskDone = func(done int) {
			if done >= crashAfter {
				cancel()
			}
		}
	})
	if _, err := m.Run(ctx, w); err == nil && crashAfter < w.Len() {
		t.Fatal("crashed run reported success")
	}
	j.Abort() // process death: unflushed group-commit window is lost
	firstCalls := snap()

	// "Restart": reopen the journal, read what it recorded as complete.
	j2 := openJournal(t, dir)
	t.Cleanup(func() { j2.Close() })
	recorded := make(map[int32]int)
	for _, r := range j2.Records() {
		if r.Kind == recTaskCompleted {
			if id, _, ok := decodeTaskCompleted(r.Data); ok {
				recorded[id]++
			}
		}
	}
	m2 := journaledManager(t, drive, j2, mode, nil)
	res, err := m2.Resume(context.Background(), w)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return res, firstCalls, snap(), recorded
}

func TestCrashResumeBothModes(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		// Reference: the same workflow run uninterrupted, for the
		// final-drive-state comparison.
		refDrive := sharedfs.NewMem()
		refSrv, _ := countingStub(t, refDrive)
		refW := diamondWorkflow(t, 3, 4, refSrv.URL)
		refM := fastManager(t, refDrive, func(o *Options) { o.Scheduling = mode })
		if _, err := refM.Run(context.Background(), refW); err != nil {
			t.Fatal(err)
		}

		drive := sharedfs.NewMem()
		srv, snap := countingStub(t, drive)
		w := diamondWorkflow(t, 3, 4, srv.URL)
		res, firstCalls, allCalls, recorded := crashAndResume(t, w, mode, 5, drive, srv.URL, snap)

		// Property 1: identical final drive state.
		if got, want := drive.List(), refDrive.List(); !reflect.DeepEqual(got, want) {
			t.Fatalf("final drive state differs:\n got %v\nwant %v", got, want)
		}
		// Property 2: no task the journal recorded completed was
		// invoked again by the resumed process.
		csr, _, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for id := range recorded {
			name := csr.Name(id)
			if allCalls[name] > firstCalls[name] {
				t.Fatalf("task %s was recorded completed yet re-invoked on resume (%d -> %d calls)",
					name, firstCalls[name], allCalls[name])
			}
		}
		if res.Resume == nil {
			t.Fatal("resumed result carries no ResumeReport")
		}
		if res.Resume.SkippedInvocations != len(recorded) {
			t.Fatalf("skipped invocations = %d, want %d (recorded set)",
				res.Resume.SkippedInvocations, len(recorded))
		}
		if res.Resume.RecordedCompleted < 5 {
			t.Fatalf("recorded completed = %d, want >= crash threshold 5", res.Resume.RecordedCompleted)
		}
		// Every task appears in the final result exactly once, with
		// recovered ones flagged.
		flagged := 0
		for name, tr := range res.Tasks {
			if name == HeaderName || name == TailName {
				continue
			}
			if tr.Recovered {
				flagged++
			} else if tr.Err != nil {
				t.Fatalf("task %s failed after resume: %v", name, tr.Err)
			}
		}
		if flagged != res.Resume.SkippedInvocations {
			t.Fatalf("recovered-flagged tasks = %d, want %d", flagged, res.Resume.SkippedInvocations)
		}
	})
}

func TestResumeReexecutesVanishedOutputs(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, snap := countingStub(t, drive)
	w := chainWorkflow(t, 6, srv.URL)
	dir := t.TempDir()
	j := openJournal(t, dir)
	m := journaledManager(t, drive, j, ScheduleDependency, nil)
	if _, err := m.Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before := snap()

	// The drive lost c002's output (evicted, pruned, whatever): resume
	// must re-run c002 — and only tasks whose products are gone.
	if err := drive.Remove("out_c002"); err != nil {
		t.Fatal(err)
	}
	j2 := openJournal(t, dir)
	defer j2.Close()
	m2 := journaledManager(t, drive, j2, ScheduleDependency, nil)
	res, err := m2.Resume(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	after := snap()
	if after["c002"] != before["c002"]+1 {
		t.Fatalf("c002 calls %d -> %d, want one re-execution", before["c002"], after["c002"])
	}
	for _, name := range []string{"c000", "c001", "c003", "c004", "c005"} {
		if after[name] != before[name] {
			t.Fatalf("%s re-invoked although its output survived (%d -> %d)", name, before[name], after[name])
		}
	}
	if res.Resume == nil || res.Resume.Reexecuted != 1 {
		t.Fatalf("resume report = %+v, want Reexecuted=1", res.Resume)
	}
	if !drive.Exists("out_c002") {
		t.Fatal("re-executed task did not restore its output")
	}
}

func TestResumeFingerprintMismatch(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _ := countingStub(t, drive)
	w := chainWorkflow(t, 4, srv.URL)
	dir := t.TempDir()
	j := openJournal(t, dir)
	m := journaledManager(t, drive, j, SchedulePhases, nil)
	if _, err := m.Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := chainWorkflow(t, 5, srv.URL) // different content
	j2 := openJournal(t, dir)
	defer j2.Close()
	m2 := journaledManager(t, drive, j2, SchedulePhases, nil)
	if _, err := m2.Resume(context.Background(), other); err == nil {
		t.Fatal("resume accepted a journal from a different workflow")
	}
}

func TestResumeCompletedRunSkipsEverything(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, snap := countingStub(t, drive)
	w := diamondWorkflow(t, 2, 2, srv.URL)
	dir := t.TempDir()
	j := openJournal(t, dir)
	m := journaledManager(t, drive, j, ScheduleDependency, nil)
	if _, err := m.Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	j.Close()
	before := snap()

	j2 := openJournal(t, dir)
	defer j2.Close()
	m2 := journaledManager(t, drive, j2, ScheduleDependency, nil)
	res, err := m2.Resume(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap(), before) {
		t.Fatal("resuming a finished run re-invoked tasks")
	}
	if res.Resume.SkippedInvocations != w.Len() {
		t.Fatalf("skipped = %d, want all %d", res.Resume.SkippedInvocations, w.Len())
	}
}

func TestRunRejectsNonEmptyJournal(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _ := countingStub(t, drive)
	w := chainWorkflow(t, 3, srv.URL)
	dir := t.TempDir()
	j := openJournal(t, dir)
	m := journaledManager(t, drive, j, SchedulePhases, nil)
	if _, err := m.Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := openJournal(t, dir)
	defer j2.Close()
	m2 := journaledManager(t, drive, j2, SchedulePhases, nil)
	if _, err := m2.Run(context.Background(), w); err == nil {
		t.Fatal("Run accepted a journal that already holds a run")
	}
}

func TestResumeEmptyJournalRunsFresh(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, snap := countingStub(t, drive)
	w := chainWorkflow(t, 3, srv.URL)
	j := openJournal(t, t.TempDir())
	defer j.Close()
	m := journaledManager(t, drive, j, ScheduleDependency, nil)
	res, err := m.Resume(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resume != nil {
		t.Fatal("fresh run via Resume carries a ResumeReport")
	}
	if len(snap()) != w.Len() {
		t.Fatalf("invoked %d tasks, want %d", len(snap()), w.Len())
	}
}

func TestJournalAttemptsSpanProcesses(t *testing.T) {
	// Crash after 2 completions, resume, finish: the journal's attempt
	// numbering keeps counting across the two processes, and the analyze
	// summary sees at most... exactly one attempt for tasks that ran
	// once and two for any task started in both lifetimes.
	drive := sharedfs.NewMem()
	srv, snap := countingStub(t, drive)
	w := chainWorkflow(t, 5, srv.URL)
	res, _, _, _ := crashAndResume(t, w, ScheduleDependency, 2, drive, srv.URL, snap)
	if len(res.Failed) != 0 {
		t.Fatalf("resumed run failed tasks: %v", res.Failed)
	}
	for name, n := range snap() {
		if n > 2 {
			t.Fatalf("task %s invoked %d times across crash+resume, want <= 2", name, n)
		}
	}
}
