package wfm

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/recipes"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
)

// stubService runs an httptest server that executes WfBench requests
// against a real drive with a trivial engine, counting concurrency.
func stubService(t *testing.T, drive sharedfs.Drive, delay time.Duration) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var active, maxActive atomic.Int64
	var mu sync.Mutex
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wfbench.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cur := active.Add(1)
		mu.Lock()
		if cur > maxActive.Load() {
			maxActive.Store(cur)
		}
		mu.Unlock()
		time.Sleep(delay)
		for name, size := range req.Out {
			drive.WriteFile(name, size)
		}
		active.Add(-1)
		json.NewEncoder(w).Encode(&wfbench.Response{Name: req.Name, OK: true})
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, &active, &maxActive
}

func fastManager(t *testing.T, drive sharedfs.Drive, mutate func(*Options)) *Manager {
	t.Helper()
	opts := Options{
		Drive:      drive,
		TimeScale:  0.002,
		PhaseDelay: 1,
		InputWait:  5,
	}
	if mutate != nil {
		mutate(&opts)
	}
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func translated(t *testing.T, recipe string, size int, url string) *wfformat.Workflow {
	t.Helper()
	w, err := wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := translator.LocalContainer(w, translator.LocalContainerOptions{BaseURL: url})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("missing drive accepted")
	}
	if _, err := New(Options{Drive: sharedfs.NewMem(), TimeScale: -1}); err == nil {
		t.Fatal("negative TimeScale accepted")
	}
}

func TestRunRequiresAPIURL(t *testing.T) {
	drive := sharedfs.NewMem()
	m := fastManager(t, drive, nil)
	w, _ := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: 6, Seed: 1})
	if _, err := m.Run(context.Background(), w); err == nil || !strings.Contains(err.Error(), "api_url") {
		t.Fatalf("err = %v, want api_url complaint", err)
	}
}

func TestRunRejectsInvalidWorkflow(t *testing.T) {
	m := fastManager(t, sharedfs.NewMem(), nil)
	w := wfformat.New("bad")
	w.AddTask(&wfformat.Task{Name: "t", Type: "weird", Cores: 1})
	if _, err := m.Run(context.Background(), w); err == nil {
		t.Fatal("invalid workflow executed")
	}
}

// forEachScheduling runs f once per release rule, as a subtest named
// after the rule. Everything but release timing is the same code for
// both values, so behaviour tests are written once and run through here.
func forEachScheduling(t *testing.T, f func(t *testing.T, s Scheduling)) {
	for _, s := range []Scheduling{SchedulePhases, ScheduleDependency} {
		t.Run(s.String(), func(t *testing.T) { f(t, s) })
	}
}

// checkEdges asserts the dependency guarantee from recorded offsets: no
// task was released or started before every parent had ended.
func checkEdges(t *testing.T, w *wfformat.Workflow, res *Result) {
	t.Helper()
	for name, task := range w.Tasks {
		tr := res.Tasks[name]
		if tr == nil {
			t.Fatalf("task %s missing from result", name)
		}
		if tr.Ready > tr.Start {
			t.Fatalf("%s: ready %v after start %v", name, tr.Ready, tr.Start)
		}
		for _, parent := range task.Parents {
			if p := res.Tasks[parent]; p.End > tr.Ready {
				t.Fatalf("%s released at %v before parent %s ended at %v", name, tr.Ready, parent, p.End)
			}
		}
	}
}

// selectiveStub serves every function (writing its outputs) except the
// ones fail picks, which answer with status; it counts all calls.
func selectiveStub(t *testing.T, drive sharedfs.Drive, status int, fail func(name string) bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wfbench.Request
		json.NewDecoder(r.Body).Decode(&req)
		calls.Add(1)
		if fail(req.Name) {
			http.Error(w, "boom", status)
			return
		}
		for name, size := range req.Out {
			drive.WriteFile(name, size)
		}
		json.NewEncoder(w).Encode(&wfbench.Response{Name: req.Name, OK: true})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestRunAgainstStub(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, s Scheduling) {
		drive := sharedfs.NewMem()
		srv, _, _ := stubService(t, drive, time.Millisecond)
		m := fastManager(t, drive, func(o *Options) { o.Scheduling = s })
		w := translated(t, "blast", 12, srv.URL)
		res, err := m.Run(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheduling != s {
			t.Fatalf("res.Scheduling = %v", res.Scheduling)
		}
		if len(res.Tasks) != 12+2 { // + header + tail
			t.Fatalf("task results = %d", len(res.Tasks))
		}
		// phases: header + 3 + tail
		if len(res.Phases) != 5 {
			t.Fatalf("phases = %d", len(res.Phases))
		}
		if res.Makespan <= 0 || res.Wall <= 0 {
			t.Fatalf("timings: %+v", res)
		}
		// every non-synthetic task got a response
		for name, tr := range res.Tasks {
			if name == HeaderName || name == TailName {
				continue
			}
			if tr.Err != nil || tr.Response == nil || !tr.Response.OK {
				t.Fatalf("task %s: %+v", name, tr)
			}
		}
		// all outputs present on the drive
		for _, name := range w.TaskNames() {
			for _, out := range w.Tasks[name].OutputFiles() {
				if !drive.Exists(out) {
					t.Fatalf("output %s missing", out)
				}
			}
		}
	})
}

// TestPhaseOrderRespected is the release-rule property: on a fresh
// SchedulePhases run the groups released together are the CSR's level
// slices member for member, consecutive groups are at least PhaseDelay
// apart, and no group is released while a task of the previous one is
// still in flight — for the seven recipes and the synthetic shapes.
func TestPhaseOrderRespected(t *testing.T) {
	builds := map[string]func(*testing.T, string) *wfformat.Workflow{
		"deep-chain":  func(t *testing.T, url string) *wfformat.Workflow { return chainWorkflow(t, 8, url) },
		"wide-fanout": func(t *testing.T, url string) *wfformat.Workflow { return fanoutWorkflow(t, 16, url) },
		"diamond":     func(t *testing.T, url string) *wfformat.Workflow { return diamondWorkflow(t, 3, 5, url) },
	}
	for _, recipe := range recipes.Names() {
		builds[recipe] = func(t *testing.T, url string) *wfformat.Workflow { return translated(t, recipe, 30, url) }
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			drive := sharedfs.NewMem()
			srv, _, _ := stubService(t, drive, 0)
			m := fastManager(t, drive, func(o *Options) { o.MaxParallel = 4 })
			w := build(t, srv.URL)
			res, err := m.Run(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			checkEdges(t, w, res)
			csr, _, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			delay := m.scaled(m.opts.PhaseDelay)
			var prevReady, prevEnd time.Duration
			for li, level := range csr.LevelSlices() {
				// One group: every member carries the same release stamp,
				// and no task of another level shares it.
				ready := res.Tasks[csr.Name(level[0])].Ready
				var lastEnd time.Duration
				for _, id := range level {
					tr := res.Tasks[csr.Name(id)]
					if tr.Ready != ready || tr.Phase != li+1 {
						t.Fatalf("level %d: %s released at %v in phase %d, group at %v", li+1, tr.Name, tr.Ready, tr.Phase, ready)
					}
					lastEnd = max(lastEnd, tr.End)
				}
				if li > 0 {
					if ready <= prevReady {
						t.Fatalf("level %d shares or precedes level %d's release (%v <= %v)", li+1, li, ready, prevReady)
					}
					if ready < prevEnd+delay {
						t.Fatalf("level %d released at %v, previous group drained at %v, PhaseDelay %v", li+1, ready, prevEnd, delay)
					}
				}
				prevReady, prevEnd = ready, lastEnd
			}
		})
	}
}

func TestMaxParallelCapsConcurrency(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, s Scheduling) {
		drive := sharedfs.NewMem()
		srv, _, maxActive := stubService(t, drive, 5*time.Millisecond)
		m := fastManager(t, drive, func(o *Options) { o.MaxParallel = 3; o.Scheduling = s })
		w := translated(t, "seismology", 30, srv.URL)
		if _, err := m.Run(context.Background(), w); err != nil {
			t.Fatal(err)
		}
		if got := maxActive.Load(); got > 3 {
			t.Fatalf("max concurrent requests = %d, want <= 3", got)
		}
	})
}

// TestFailFastAborts: without ContinueOnError the first failure ends the
// run with the loop's "N function(s) failed" error under either rule;
// nothing downstream of the failed root is invoked, and every task still
// appears in the Result — the root as failed, the rest as skipped.
func TestFailFastAborts(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, s Scheduling) {
		drive := sharedfs.NewMem()
		srv, calls := selectiveStub(t, drive, http.StatusInternalServerError, func(string) bool { return true })
		m := fastManager(t, drive, func(o *Options) { o.Scheduling = s })
		w := translated(t, "blast", 10, srv.URL)
		res, err := m.Run(context.Background(), w)
		if err == nil || !strings.Contains(err.Error(), "10 function(s) failed") {
			t.Fatalf("err = %v, want the loop's failed-functions error", err)
		}
		// only the single split_fasta root was attempted
		if calls.Load() != 1 {
			t.Fatalf("calls = %d, want 1", calls.Load())
		}
		if len(res.Tasks) != w.Len()+2 || len(res.Failed) != w.Len() {
			t.Fatalf("recorded %d tasks, %d failed; want every task accounted", len(res.Tasks), len(res.Failed))
		}
		for _, name := range res.Failed {
			skipped := strings.Contains(res.Tasks[name].Err.Error(), "skipped")
			if root := strings.HasPrefix(name, "split_fasta"); skipped == root {
				t.Fatalf("%s: err = %v", name, res.Tasks[name].Err)
			}
		}
		if res.Wall <= 0 {
			t.Fatal("failed run reports no wall time")
		}
	})
}

// TestContinueOnError: descendants of a failed function are skipped —
// recorded and journaled as such, never invoked to fail on their own
// input check — while everything that does not descend from it runs.
func TestContinueOnError(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, s Scheduling) {
		drive := sharedfs.NewMem()
		var victim string // set before Run, read by the stub during it
		srv, calls := selectiveStub(t, drive, http.StatusBadRequest, func(n string) bool { return n == victim })
		w := translated(t, "blast", 8, srv.URL)
		for _, name := range w.TaskNames() {
			if strings.HasPrefix(name, "blastall") {
				victim = name
				break
			}
		}
		desc := map[string]bool{}
		for changed := true; changed; { // transitive closure of the victim's children

			changed = false
			for name, task := range w.Tasks {
				for _, parent := range task.Parents {
					if (parent == victim || desc[parent]) && !desc[name] {
						desc[name], changed = true, true
					}
				}
			}
		}
		if len(desc) == 0 {
			t.Fatal("victim has no descendants; test workflow is wrong")
		}
		dir := t.TempDir()
		j := openJournal(t, dir)
		m := journaledManager(t, drive, j, s, func(o *Options) { o.ContinueOnError = true })
		res, err := m.Run(context.Background(), w)
		if err == nil {
			t.Fatal("run with failures reported success")
		}
		j.Close()
		if want := int64(w.Len() - len(desc)); calls.Load() != want {
			t.Fatalf("calls = %d, want %d (descendants never invoked)", calls.Load(), want)
		}
		if len(res.Failed) != len(desc)+1 {
			t.Fatalf("Failed = %v, want the victim and its %d descendants", res.Failed, len(desc))
		}
		for name, tr := range res.Tasks {
			if skipped := tr.Err != nil && strings.Contains(tr.Err.Error(), "skipped"); skipped != desc[name] {
				t.Fatalf("task %s: err = %v, descendant = %v", name, tr.Err, desc[name])
			}
		}
		sum, err := ReadRunJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if sum.SkippedTasks != len(desc) || sum.FailedTasks != len(desc)+1 {
			t.Fatalf("journal: %d skipped of %d failed, want %d of %d", sum.SkippedTasks, sum.FailedTasks, len(desc), len(desc)+1)
		}
	})
}

// TestRunCancelled: a run that ends early still says how long it ran.
// Wall and Makespan are set on every exit path of the one loop — the
// phase loop used to return before setting them when cancelled between
// phases or aborted on missing inputs.
func TestRunCancelled(t *testing.T) {
	cases := []struct {
		name      string
		stubDelay time.Duration
		timeout   time.Duration // 0: the run ends on its own failure
		mutate    func(*Options)
		wantErr   error
	}{
		{"mid-dispatch", 50 * time.Millisecond, 20 * time.Millisecond, nil, context.DeadlineExceeded},
		// Only a barrier run has an inter-phase delay to be cancelled in;
		// the slow stub keeps the other rule's run alive past the deadline.
		{"in-phase-delay", 25 * time.Millisecond, 40 * time.Millisecond,
			func(o *Options) { o.PhaseDelay = 500 }, context.DeadlineExceeded},
		{"inputs-never-arrive", 0, 0,
			func(o *Options) { o.SkipStageInputs = true; o.InputWait = 0.5 }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forEachScheduling(t, func(t *testing.T, s Scheduling) {
				drive := sharedfs.NewMem()
				srv, _, _ := stubService(t, drive, tc.stubDelay)
				m := fastManager(t, drive, func(o *Options) {
					o.Scheduling = s
					if tc.mutate != nil {
						tc.mutate(o)
					}
				})
				w := translated(t, "blast", 20, srv.URL)
				ctx := context.Background()
				if tc.timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, tc.timeout)
					defer cancel()
				}
				res, err := m.Run(ctx, w)
				if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if res.Wall <= 0 || res.Makespan <= 0 {
					t.Fatalf("Wall = %v, Makespan = %v on an aborted run", res.Wall, res.Makespan)
				}
				if len(res.Tasks) != w.Len()+2 {
					t.Fatalf("recorded %d task results, want %d", len(res.Tasks), w.Len()+2)
				}
			})
		})
	}
}

func TestPhaseBreakdown(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, time.Millisecond)
	m := fastManager(t, drive, nil)
	w := translated(t, "blast", 12, srv.URL)
	res, err := m.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	stats := PhaseBreakdown(res)
	if len(stats) != 3 {
		t.Fatalf("phase stats = %+v", stats)
	}
	if stats[0].Functions != 1 || stats[1].Functions != 9 || stats[2].Functions != 2 {
		t.Fatalf("widths = %+v", stats)
	}
	for _, s := range stats {
		if s.WallSpan < 0 {
			t.Fatalf("negative span: %+v", s)
		}
	}
}

// TestEndToEndServerless runs a real workflow through the translator, the
// Knative-like platform, and the manager — the paper's full serverless
// pipeline.
func TestEndToEndServerless(t *testing.T) {
	cl := cluster.PaperTestbed()
	drive := sharedfs.NewMem()
	p, err := serverless.New(serverless.Options{
		Cluster:           cl,
		Drive:             drive,
		TimeScale:         0.002,
		ColdStart:         0.5,
		AutoscalePeriod:   0.5,
		StableWindow:      10,
		PodOverheadMem:    50 << 20,
		WorkerOverheadMem: 8 << 20,
		InputWait:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	url, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := p.Apply(serverless.ServiceConfig{
		Name: "wfbench", Workers: 10, CPURequestPerWorker: 1, MemRequestPerWorker: 256 << 20,
	}); err != nil {
		t.Fatal(err)
	}

	w, err := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := translator.Knative(w, translator.KnativeOptions{IngressURL: url, Workdir: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	m := fastManager(t, drive, nil)
	res, err := m.Run(context.Background(), kn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	if p.Requests() != int64(w.Len()) {
		t.Fatalf("platform served %d requests, want %d", p.Requests(), w.Len())
	}
	if p.ColdStarts() == 0 {
		t.Fatal("expected cold starts on a scale-from-zero service")
	}
}

// TestEndToEndLocalContainers runs the same pipeline against the
// bare-metal baseline: four always-on containers, a service held at
// fixed scale with no cold start.
func TestEndToEndLocalContainers(t *testing.T) {
	cl := cluster.PaperTestbed()
	drive := sharedfs.NewMem()
	p, err := serverless.New(serverless.Options{
		Cluster:           cl,
		Drive:             drive,
		TimeScale:         0.002,
		InputWait:         5,
		PodOverheadMem:    50 << 20,
		WorkerOverheadMem: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	url, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := p.Apply(serverless.ServiceConfig{
		Name: "wfbench", Workers: 10, CPURequestPerWorker: 1, MemLimit: 4 << 30, MinScale: 4, MaxScale: 4,
	}); err != nil {
		t.Fatal(err)
	}

	w, err := wfgen.Generate(wfgen.Spec{Recipe: "epigenomics", NumTasks: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := translator.Knative(w, translator.KnativeOptions{IngressURL: url, Workdir: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	m := fastManager(t, drive, nil)
	res, err := m.Run(context.Background(), lc)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Tasks)-2) != p.Requests() {
		t.Fatalf("containers served %d, want %d", p.Requests(), len(res.Tasks)-2)
	}
	if p.ColdStarts() != 0 {
		t.Fatalf("always-on containers paid %d cold starts", p.ColdStarts())
	}
	// containers still reserved after the run (always-on baseline)
	if got := cl.Snapshot().ReservedCores; got != 40 {
		t.Fatalf("ReservedCores after run = %v, want 40", got)
	}
}
