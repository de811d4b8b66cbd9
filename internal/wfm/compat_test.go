package wfm

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"testing"

	"wfserverless/internal/cluster"
	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// serviceWorkflow is the shape wfmd is sent by the thousand: a root
// (which also reads one external input), k middle tasks and a leaf under
// each. synthTask lists a task's output before its inputs, as the
// generators do — not the (link, name) order hashes are taken in.
func serviceWorkflow(t testing.TB, prefix string, k int, url string) *wfformat.Workflow {
	w := wfformat.New(prefix)
	root := prefix + "_root"
	synthAdd(t, w, synthTask(root, url, []string{"ext_seed"}))
	for i := 0; i < k; i++ {
		mid := fmt.Sprintf("%s_mid%03d", prefix, i)
		leaf := fmt.Sprintf("%s_zleaf%03d", prefix, i)
		synthAdd(t, w, synthTask(mid, url, []string{"out_" + root}))
		synthAdd(t, w, synthTask(leaf, url, []string{"out_" + mid}))
		synthLink(t, w, root, mid)
		synthLink(t, w, mid, leaf)
	}
	return w
}

// The hashes of serviceWorkflow("svc", 3) as the commit before the
// allocation-free digester computed them (task fingerprints with
// external inputs addressed by sharedfs.ContentAddress, as a manager's
// memo probe does): what that commit wrote into run headers and memo
// caches that are still on disk.
const parentWorkflowFingerprint = "2c0dc1f92238ed256122051960840b0406e8ae47b555720dcde1beb2df6eb620"

var parentTaskFingerprints = map[string]string{
	"svc_mid000":   "d47531bfead91937fdc6f3ac0f1cedef481759dfec14272aa1dfd60b5f30b439",
	"svc_mid001":   "33928a81b973c7fb5f75f3fd2a38807defaf0aa95b5059de0547163079c6b8a3",
	"svc_mid002":   "78e899da4abb6cb58aade98ac2e24d2bdf2e34afabb2cf349b17cbaff2bb54ee",
	"svc_root":     "64a972b5a3a40870c3bbca7619b96a8355666ad507b23e5694145df22aac034d",
	"svc_zleaf000": "60ecf0c42031fa61967c59145d98ca9a48955db1aa6827c9ce1637715ca0edb7",
	"svc_zleaf001": "d9932f62cd8f131160f999ab0c1240ae2b71926d1f1df187cdde24e7439e1826",
	"svc_zleaf002": "a6de2b53cae2f3a96c24b4f821573360602e541a3a3572917daebb2917d2f1d2",
}

// TestResumeAcceptsParentFingerprint: a journal whose header carries the
// fingerprint the previous hashing gave must still resume.
func TestResumeAcceptsParentFingerprint(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, snap := countingStub(t, drive)
	w := serviceWorkflow(t, "svc", 3, srv.URL)
	fp, err := wfformat.ParseHash(parentWorkflowFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileRunnable(w)
	if err != nil {
		t.Fatal(err)
	}
	rootID, _ := c.csr.ID("svc_root")

	// The previous process: header, the root started and completed, death.
	dir := t.TempDir()
	j := openJournal(t, dir)
	m := journaledManager(t, drive, j, ScheduleDependency, nil)
	rj := &runJournal{j: j, p: c.plan, started: make([]int32, c.Len())}
	h := &runHeader{Version: journalRunHeaderVersion, Fingerprint: fp, OptionsHash: m.opts.optionsHash(),
		Scheduling: ScheduleDependency, TaskCount: c.Len(), Workflow: w.Name}
	rj.appendLocked(recRunHeader, h.encode())
	rj.on(transition{kind: tStart, id: rootID})
	rj.on(transition{kind: tDone, id: rootID})
	if err := rj.takeError(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	drive.WriteFile("out_svc_root", 1)

	j = openJournal(t, dir)
	defer j.Close()
	m = journaledManager(t, drive, j, ScheduleDependency, nil)
	res, err := m.Resume(context.Background(), w)
	if err != nil {
		t.Fatalf("resume against the parent's fingerprint: %v", err)
	}
	if res.Resume == nil || res.Resume.SkippedInvocations != 1 || !res.Tasks["svc_root"].Recovered {
		t.Fatalf("resume report %+v, root %+v: want the root recovered", res.Resume, res.Tasks["svc_root"])
	}
	if calls := snap(); calls["svc_root"] != 0 || len(calls) != w.Len()-1 {
		t.Fatalf("invocations %v: want every task but the root, once", calls)
	}
}

// TestMemoHitsParentFingerprints: a memo cache keyed by the task
// fingerprints the previous hashing gave must still serve every task.
func TestMemoHitsParentFingerprints(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, snap := countingStub(t, drive)
	w := serviceWorkflow(t, "svc", 3, srv.URL)
	cache := openCache(t, filepath.Join(t.TempDir(), "memo.cache"))
	defer cache.Close()
	for name, hex := range parentTaskFingerprints {
		fp, err := wfformat.ParseHash(hex)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(fp, []memo.Output{{Name: "out_" + name, Size: 1}}); err != nil {
			t.Fatal(err)
		}
		drive.WriteFile("out_"+name, 1)
	}
	if len(parentTaskFingerprints) != w.Len() {
		t.Fatalf("%d pinned fingerprints for %d tasks", len(parentTaskFingerprints), w.Len())
	}
	res, err := memoManager(t, drive, cache, ScheduleDependency, nil).Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Memo.Hits != w.Len() || res.Memo.Misses != 0 || len(snap()) != 0 {
		t.Fatalf("memo %+v, invocations %v: want %d hits and no invocation", res.Memo, snap(), w.Len())
	}
}

// TestFrontHalfAllocationBudget holds the front half of a run — bytes in,
// first dispatch out — to a per-task allocation ceiling, so that a
// regression shows in go test and not only in bench/. The ceilings sit a
// little above what the code reaches (logged: 6.2 and 0.004); with the
// reflection Parse, the json.Encoder plan and the copy-and-sort.Slice
// digester they were 48 and 9.
func TestFrontHalfAllocationBudget(t *testing.T) {
	perTask := func(n int, f func()) float64 { return testing.AllocsPerRun(10, f) / float64(n) }

	w := serviceWorkflow(t, "svc", 31, "http://127.0.0.1:8080/invoke")
	body, err := w.MarshalCompact()
	if err != nil {
		t.Fatal(err)
	}
	n := w.Len()
	var parsed *wfformat.Workflow
	var c *Compiled
	parse := perTask(n, func() {
		if parsed, err = wfformat.Parse(body); err != nil {
			t.Fatal(err)
		}
	})
	compile := perTask(n, func() {
		if c, err = CompileRunnable(parsed); err != nil {
			t.Fatal(err)
		}
	})
	fingerprint := perTask(n, func() { c.fingerprint() })
	taskfp := perTask(n, func() { wfformat.TaskFingerprints(c.csr, c.plan.tasks, sharedfs.ContentAddress) })
	t.Logf("%d-task service workflow, allocations per task: parse %.2f, compile+plan %.2f, fingerprint %.2f, task fingerprints %.2f",
		n, parse, compile, fingerprint, taskfp)
	if total := parse + compile + fingerprint + taskfp; total > 7.5 {
		t.Errorf("front half of a %d-task run allocates %.1f times per task, budget 7.5", n, total)
	}

	wide := fanoutWorkflow(t, 9998, "http://127.0.0.1:8080/invoke")
	wc, err := CompileRunnable(wide)
	if err != nil {
		t.Fatal(err)
	}
	if got := perTask(wide.Len(), func() { wfformat.TaskFingerprints(wc.csr, wc.plan.tasks, sharedfs.ContentAddress) }); got > 0.01 {
		t.Errorf("TaskFingerprints of a %d-task fan-out allocates %.4f times per task, budget 0.01", wide.Len(), got)
	} else {
		t.Logf("%d-task fan-out: task fingerprints %.4f allocations per task", wide.Len(), got)
	}
}

// benchFanout is bench/'s fan-out: a root and n-1 leaves reading its
// output, names zero-padded so that name order is creation order.
func benchFanout(t testing.TB, n int, url string) *wfformat.Workflow {
	w := wfformat.New(fmt.Sprintf("fanout-%d", n))
	synthAdd(t, w, synthTask("root", url, nil))
	for i := 1; i < n; i++ {
		leaf := fmt.Sprintf("leaf_%06d", i)
		synthAdd(t, w, synthTask(leaf, url, []string{"out_root"}))
		synthLink(t, w, "root", leaf)
	}
	return w
}

// loopbackPlatform is an in-process serverless platform, pods warm and
// fixed in number, behind wfbench.ListenLoopback: what a run's POSTs
// reach in bench/. It returns the api_url of its one service.
func loopbackPlatform(t testing.TB, drive sharedfs.Drive) string {
	const scale = 1e-6
	plat, err := serverless.New(serverless.Options{
		Cluster: cluster.PaperTestbed(), Drive: drive, TimeScale: scale, InstantScaleUp: true,
		AutoscalePeriod: 1 / scale, StableWindow: 3600 / scale, InputWait: 5 / scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plat.Stop)
	if err := plat.Apply(serverless.ServiceConfig{Name: "fn", Workers: 32, MinScale: 8, MaxScale: 8}); err != nil {
		t.Fatal(err)
	}
	lb, err := wfbench.ListenLoopback(plat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	return lb.URL() + "/fn/wfbench"
}

// mallocsPerTask is runtime.MemStats.Mallocs across one Run of w —
// compile, plan, every POST both sides of the loopback, the journal —
// divided by the tasks.
func mallocsPerTask(t testing.TB, m *Manager, w *wfformat.Workflow) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := m.Run(context.Background(), w)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || len(res.Tasks) != w.Len()+2 {
		t.Fatalf("%d failed, %d results for %d tasks", len(res.Failed), len(res.Tasks), w.Len())
	}
	return float64(after.Mallocs-before.Mallocs) / float64(w.Len())
}

// TestBackHalfAllocationBudget holds the back half of a run — task
// released to completion recorded, the function side of the loopback
// included — to a per-task allocation ceiling. batched is bench/'s scale
// path: a 10k fan-out, batches of 512, a group-synced journal; reached
// 3.0–3.9 (the commit before the slabs: 22.5), and `make alloc-sites`
// names the sites behind the figure. single is one POST per task, so the
// per-task figure is the per-attempt one; nearly all of it is net/http's.
// Its ceiling is what the commit before counted (102), so that what the
// attempt now builds for itself — its request, its GetBody — is held to
// costing no more than the plan's per-task templates did; reached 92–95.
func TestBackHalfAllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("counts the allocations of a 10k-task run, its own only without the race detector")
	}
	const scale = 1e-6
	batched := func(t *testing.T, sinks bool) float64 {
		drive := sharedfs.NewMem()
		url := loopbackPlatform(t, drive)
		j, err := journal.Open(t.TempDir(), journal.Options{Sync: journal.SyncGroup})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		opts := Options{
			Drive: drive, TimeScale: scale, InputWait: 5 / scale, Journal: j,
			Scheduling: ScheduleDependency, MaxParallel: 2048,
			Batching: BatchOptions{Enabled: true, MaxTasks: 512, Linger: 0.002 / scale},
		}
		if sinks {
			opts.Monitor = NewMonitor()
			opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
			opts.AfterTaskDone = func(int) {}
		}
		m, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return mallocsPerTask(t, m, benchFanout(t, 10000, url))
	}
	t.Run("batched", func(t *testing.T) {
		got := batched(t, false)
		t.Logf("10k fan-out, batches of 512, group-synced journal: %.2f allocations per task", got)
		if got > 9 {
			t.Errorf("batched run allocates %.1f times per task, budget 9", got)
		}
	})
	// The transition sinks cost no allocation per task: the same run with
	// the monitor, a logger and the AfterTaskDone hook on is held to what
	// the commit before the transition stream measured for it, 2.16–4.48
	// over 22 runs (3.7–4.5 run alone, less after the row above).
	t.Run("batched+sinks", func(t *testing.T) {
		got := batched(t, true)
		t.Logf("the same with a monitor, a discarding logger and an AfterTaskDone: %.2f allocations per task", got)
		if got > 4.5 {
			t.Errorf("batched run with the cheap sinks on allocates %.2f times per task, the commit before 4.48", got)
		}
	})
	t.Run("single", func(t *testing.T) {
		drive := sharedfs.NewMem()
		url := loopbackPlatform(t, drive)
		m, err := New(Options{Drive: drive, TimeScale: scale, InputWait: 5 / scale,
			Scheduling: ScheduleDependency, MaxParallel: 64})
		if err != nil {
			t.Fatal(err)
		}
		got := mallocsPerTask(t, m, benchFanout(t, 2000, url))
		t.Logf("2k fan-out, one POST per task: %.2f allocations per task", got)
		if got > 100 {
			t.Errorf("single-task path allocates %.1f times per task, the commit before the slabs 102", got)
		}
	})
}
