package wfm

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"wfserverless/internal/memo"
	"wfserverless/internal/sharedfs"
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
	rj := newRunJournal(j, c.Len(), nil)
	h := &runHeader{Version: journalRunHeaderVersion, Fingerprint: fp, OptionsHash: m.opts.optionsHash(),
		Scheduling: ScheduleDependency, TaskCount: c.Len(), Workflow: w.Name}
	rj.append(recRunHeader, h.encode())
	rj.taskStarted(rootID)
	rj.taskCompleted(rootID, c.plan.tasks[rootID])
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
