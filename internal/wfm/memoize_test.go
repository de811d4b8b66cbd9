package wfm

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wfserverless/internal/memo"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfformat"
)

func openCache(t *testing.T, path string) *memo.Cache {
	t.Helper()
	c, err := memo.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func memoManager(t *testing.T, drive sharedfs.Drive, c *memo.Cache, mode Scheduling, mutate func(*Options)) *Manager {
	t.Helper()
	return fastManager(t, drive, func(o *Options) {
		o.Memoize = c
		o.Scheduling = mode
		if mutate != nil {
			mutate(o)
		}
	})
}

// extChainWorkflow is a chain whose root also reads an external input —
// the file stageHeader puts on the drive — so unchanged-re-run tests
// cover the staging-independence of external-input addressing.
func extChainWorkflow(t testing.TB, n int, url string) *wfformat.Workflow {
	w := chainWorkflow(t, n, url)
	root := w.Tasks["c000"]
	root.Files = append(root.Files, wfformat.File{Link: wfformat.LinkInput, Name: "ext_seed", SizeInBytes: 4})
	root.Command.Arguments[0].Inputs = append(root.Command.Arguments[0].Inputs, "ext_seed")
	return w
}

// driveState captures (name, size) for byte-identity comparisons.
func driveState(t *testing.T, d sharedfs.Drive) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, name := range d.List() {
		size, err := d.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = size
	}
	return out
}

// invokedSince diffs two countingStub snapshots: task names whose call
// count grew.
func invokedSince(before, after map[string]int) map[string]int {
	out := make(map[string]int)
	for name, n := range after {
		if n > before[name] {
			out[name] = n - before[name]
		}
	}
	return out
}

func TestMemoizeUnchangedRerun(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		drive := sharedfs.NewMem()
		srv, snap := countingStub(t, drive)
		w := extChainWorkflow(t, 6, srv.URL)
		n := w.Len()
		path := filepath.Join(t.TempDir(), "memo.cache")

		cold := openCache(t, path)
		mon := NewMonitor()
		m := memoManager(t, drive, cold, mode, func(o *Options) { o.Monitor = mon })
		res, err := m.Run(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Memo == nil || res.Memo.Hits != 0 || res.Memo.Misses != n {
			t.Fatalf("cold run Memo = %+v, want 0 hits / %d misses", res.Memo, n)
		}
		if err := cold.Close(); err != nil {
			t.Fatal(err)
		}
		after1 := snap()
		state1 := driveState(t, drive)

		// Fresh cache object over the same file models a new process.
		warm := openCache(t, path)
		defer warm.Close()
		if warm.Len() != n {
			t.Fatalf("cache holds %d entries after cold run, want %d", warm.Len(), n)
		}
		m2 := memoManager(t, drive, warm, mode, func(o *Options) { o.Monitor = mon })
		res2, err := m2.Run(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if got := invokedSince(after1, snap()); len(got) != 0 {
			t.Fatalf("unchanged re-run invoked %v, want none", got)
		}
		if res2.Memo == nil || res2.Memo.Hits != n || res2.Memo.Misses != 0 {
			t.Fatalf("re-run Memo = %+v, want %d hits / 0 misses", res2.Memo, n)
		}
		for name, tr := range res2.Tasks {
			if name == HeaderName || name == TailName {
				continue
			}
			if !tr.Memoized || tr.Recovered || tr.Err != nil {
				t.Fatalf("task %s: Memoized=%v Recovered=%v Err=%v, want memoized clean", name, tr.Memoized, tr.Recovered, tr.Err)
			}
		}
		if state2 := driveState(t, drive); !reflect.DeepEqual(state1, state2) {
			t.Fatalf("drive changed across memoized re-run:\n%v\nvs\n%v", state1, state2)
		}
		s := mon.Snapshot()
		if s.MemoHits != int64(n) || s.MemoMisses != int64(n) {
			t.Fatalf("monitor memo counters = %d/%d, want %d/%d", s.MemoHits, s.MemoMisses, n, n)
		}
		var sb strings.Builder
		if err := mon.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "wfm_memo_hits_total") {
			t.Fatal("metrics exposition lacks wfm_memo_hits_total")
		}
	})
}

// TestMemoizeIncrementalEdit is the acceptance-criterion test: a 1-task
// edit re-invokes exactly that task and its descendants, and the final
// drive state is byte-identical to a from-scratch run of the edited
// workflow.
func TestMemoizeIncrementalEdit(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		drive := sharedfs.NewMem()
		srv, snap := countingStub(t, drive)
		path := filepath.Join(t.TempDir(), "memo.cache")

		cold := openCache(t, path)
		m := memoManager(t, drive, cold, mode, nil)
		if _, err := m.Run(context.Background(), diamondWorkflow(t, 2, 3, srv.URL)); err != nil {
			t.Fatal(err)
		}
		cold.Close()
		before := snap()

		// Edit one mid task of the first diamond layer: descendants are
		// the first join, the whole second layer, and the final join.
		edited := diamondWorkflow(t, 2, 3, srv.URL)
		edited.Tasks["m000_01"].Command.Arguments[0].CPUWork += 99
		want := map[string]bool{"m000_01": true, "j000": true, "j001": true}
		for i := 0; i < 3; i++ {
			want["m001_0"+string(rune('0'+i))] = true
		}

		warm := openCache(t, path)
		defer warm.Close()
		m2 := memoManager(t, drive, warm, mode, nil)
		res, err := m2.Run(context.Background(), edited)
		if err != nil {
			t.Fatal(err)
		}
		got := invokedSince(before, snap())
		for name := range want {
			if got[name] != 1 {
				t.Fatalf("edited descendant %s invoked %d times, want 1 (invoked: %v)", name, got[name], got)
			}
		}
		for name := range got {
			if !want[name] {
				t.Fatalf("extra invocation of %s (invoked: %v)", name, got)
			}
		}
		if res.Memo.Hits != edited.Len()-len(want) {
			t.Fatalf("Memo.Hits = %d, want %d", res.Memo.Hits, edited.Len()-len(want))
		}

		// Byte-identity against a from-scratch run of the edited
		// workflow on a fresh drive.
		refDrive := sharedfs.NewMem()
		refSrv, _ := countingStub(t, refDrive)
		ref := diamondWorkflow(t, 2, 3, refSrv.URL)
		ref.Tasks["m000_01"].Command.Arguments[0].CPUWork += 99
		mref := fastManager(t, refDrive, func(o *Options) { o.Scheduling = mode })
		if _, err := mref.Run(context.Background(), ref); err != nil {
			t.Fatal(err)
		}
		if a, b := driveState(t, drive), driveState(t, refDrive); !reflect.DeepEqual(a, b) {
			t.Fatalf("incremental drive state differs from from-scratch run:\n%v\nvs\n%v", a, b)
		}
	})
}

// TestMemoizeVanishedOutputReruns: a cache hit whose recorded outputs
// are gone from the drive re-runs its producer — and only its producer;
// descendants with intact outputs stay memoized.
func TestMemoizeVanishedOutputReruns(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, snap := countingStub(t, drive)
	w := chainWorkflow(t, 5, srv.URL)
	path := filepath.Join(t.TempDir(), "memo.cache")

	cold := openCache(t, path)
	m := memoManager(t, drive, cold, ScheduleDependency, nil)
	if _, err := m.Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	cold.Close()
	before := snap()
	if err := drive.Remove("out_c002"); err != nil {
		t.Fatal(err)
	}

	warm := openCache(t, path)
	defer warm.Close()
	m2 := memoManager(t, drive, warm, ScheduleDependency, nil)
	res, err := m2.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	got := invokedSince(before, snap())
	if len(got) != 1 || got["c002"] != 1 {
		t.Fatalf("vanished-output re-run invoked %v, want exactly c002 once", got)
	}
	if !drive.Exists("out_c002") {
		t.Fatal("re-run did not restore the vanished output")
	}
	if res.Memo.Hits != w.Len()-1 || res.Memo.Misses != 1 {
		t.Fatalf("Memo = %+v, want %d hits / 1 miss", res.Memo, w.Len()-1)
	}
}

// TestMemoizeJournalRecords: a memoized re-run under a journal writes
// task-memoized records the analysis layer reports.
func TestMemoizeJournalRecords(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _ := countingStub(t, drive)
	w := chainWorkflow(t, 4, srv.URL)
	path := filepath.Join(t.TempDir(), "memo.cache")

	cold := openCache(t, path)
	m := memoManager(t, drive, cold, ScheduleDependency, nil)
	if _, err := m.Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	cold.Close()

	dir := t.TempDir()
	j := openJournal(t, dir)
	warm := openCache(t, path)
	defer warm.Close()
	m2 := memoManager(t, drive, warm, ScheduleDependency, func(o *Options) { o.Journal = j })
	if _, err := m2.Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := ReadRunJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MemoizedTasks != w.Len() {
		t.Fatalf("journal reports %d memoized tasks, want %d", sum.MemoizedTasks, w.Len())
	}
	if sum.EventCounts["task-memoized"] != w.Len() {
		t.Fatalf("task-memoized records = %d, want %d", sum.EventCounts["task-memoized"], w.Len())
	}
	if sum.EventCounts["task-started"] != 0 {
		t.Fatalf("memoized re-run recorded %d task-started events, want 0", sum.EventCounts["task-started"])
	}
	if sum.MemoSkippedBytes != int64(w.Len()) { // one 1-byte output per task
		t.Fatalf("MemoSkippedBytes = %d, want %d", sum.MemoSkippedBytes, w.Len())
	}
	if sum.MemoReexecuted != 0 {
		t.Fatalf("MemoReexecuted = %d, want 0", sum.MemoReexecuted)
	}
}

// TestMemoizeComposesWithResume: crash a journaled+memoized run
// mid-flight, then resume with a cache reopened from disk (modeling
// process death). No task the journal or the cache recorded as done may
// be invoked again; only the in-flight crash window re-runs.
func TestMemoizeComposesWithResume(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		drive := sharedfs.NewMem()
		srv, snap := countingStub(t, drive)
		w := diamondWorkflow(t, 2, 3, srv.URL)
		cachePath := filepath.Join(t.TempDir(), "memo.cache")
		dir := t.TempDir()

		j := openJournal(t, dir)
		c := openCache(t, cachePath)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		m := memoManager(t, drive, c, mode, func(o *Options) {
			o.Journal = j
			o.ContinueOnError = true
			o.AfterTaskDone = func(done int) {
				if done == 3 {
					cancel()
				}
			}
		})
		m.Run(ctx, w) // crashes by design; error expected
		j.Abort()
		c.Close()
		firstCalls := snap()

		j2 := openJournal(t, dir)
		recorded := make(map[int32]bool)
		for _, r := range j2.Records() {
			if r.Kind == recTaskCompleted || r.Kind == recTaskMemoized {
				d := payload{b: r.Data}
				id := int32(d.uvarint())
				if d.err == nil {
					recorded[id] = true
				}
			}
		}
		c2 := openCache(t, cachePath)
		defer c2.Close()
		m2 := memoManager(t, drive, c2, mode, func(o *Options) { o.Journal = j2 })
		res, err := m2.Resume(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if len(res.Failed) != 0 {
			t.Fatalf("resumed run failed tasks: %v", res.Failed)
		}
		csr, _, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		allCalls := snap()
		for id := range recorded {
			name := csr.Name(id)
			if allCalls[name] > firstCalls[name] {
				t.Fatalf("task %s recorded done yet re-invoked on resume (%d -> %d calls)",
					name, firstCalls[name], allCalls[name])
			}
		}
		// The cache's flushed entries also shield tasks the journal
		// missed: anything durably cached with intact outputs must not
		// re-run either.
		for _, id := range csr.TopoOrder() {
			tr := res.Tasks[csr.Name(id)]
			if tr != nil && tr.Memoized && allCalls[csr.Name(id)] > firstCalls[csr.Name(id)] {
				t.Fatalf("task %s reported memoized yet re-invoked", csr.Name(id))
			}
		}
		// Every task is accounted exactly once in the final result.
		if got := len(res.Tasks); got != w.Len()+2 {
			t.Fatalf("result holds %d tasks, want %d", got, w.Len()+2)
		}
	})
}

// TestMemoizeCorruptCacheColdRun: garbage where the cache should be
// degrades to a cold cache — full re-execution, a warning, and a
// rewritten usable cache file. Never a wrong hit.
func TestMemoizeCorruptCacheColdRun(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, snap := countingStub(t, drive)
	w := chainWorkflow(t, 4, srv.URL)
	path := filepath.Join(t.TempDir(), "memo.cache")
	if err := os.WriteFile(path, []byte("garbage garbage garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := openCache(t, path)
	m := memoManager(t, drive, c, ScheduleDependency, nil)
	res, err := m.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if res.Memo.Hits != 0 {
		t.Fatalf("corrupt cache produced %d hits", res.Memo.Hits)
	}
	if !res.Memo.CacheRepaired {
		t.Fatal("corrupt cache not reported repaired")
	}
	warned := false
	for _, wmsg := range res.Warnings {
		if strings.Contains(wmsg, "memo") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no memo warning in %v", res.Warnings)
	}
	got := snap()
	for _, name := range w.TaskNames() {
		if got[name] != 1 {
			t.Fatalf("task %s invoked %d times on cold run, want 1", name, got[name])
		}
	}

	// The rewritten file now serves hits.
	c2 := openCache(t, path)
	defer c2.Close()
	m2 := memoManager(t, drive, c2, ScheduleDependency, nil)
	res2, err := m2.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Memo.Hits != w.Len() {
		t.Fatalf("post-repair re-run hits = %d, want %d", res2.Memo.Hits, w.Len())
	}
}
