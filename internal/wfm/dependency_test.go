package wfm

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

func TestParseScheduling(t *testing.T) {
	for in, want := range map[string]Scheduling{
		"phases": SchedulePhases, "phase": SchedulePhases, "": SchedulePhases,
		"dependency": ScheduleDependency, "dep": ScheduleDependency, "eager": ScheduleDependency,
	} {
		got, err := ParseScheduling(in)
		if err != nil || got != want {
			t.Fatalf("ParseScheduling(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScheduling("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if SchedulePhases.String() != "phases" || ScheduleDependency.String() != "dependency" {
		t.Fatal("Scheduling String mismatch")
	}
	if _, err := New(Options{Drive: sharedfs.NewMem(), Scheduling: Scheduling(99)}); err == nil {
		t.Fatal("unknown Scheduling accepted by New")
	}
}

// TestDependencyViaRunOption is the acceptance property test: through
// the public Run API either rule produces the identical task set and
// respects every DAG edge, verified from recorded release/end offsets.
func TestDependencyViaRunOption(t *testing.T) {
	for _, recipe := range []string{"blast", "epigenomics", "cycles"} {
		t.Run(recipe, func(t *testing.T) {
			forEachScheduling(t, func(t *testing.T, s Scheduling) {
				drive := sharedfs.NewMem()
				srv, _, _ := stubService(t, drive, time.Millisecond)
				m := fastManager(t, drive, func(o *Options) { o.Scheduling = s })
				w := translated(t, recipe, 25, srv.URL)
				res, err := m.Run(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				// Identical task set: every workflow task plus header/tail,
				// nothing else.
				if len(res.Tasks) != w.Len()+2 {
					t.Fatalf("tasks = %d, want %d", len(res.Tasks), w.Len()+2)
				}
				checkEdges(t, w, res)
			})
		})
	}
}

// TestDependencySyntheticShapes runs the three benchmark shapes under
// both rules and checks the edge property on each.
func TestDependencySyntheticShapes(t *testing.T) {
	shapes := []struct {
		name  string
		build func(testing.TB, string) *wfformat.Workflow
	}{
		{"deep-chain", func(tb testing.TB, url string) *wfformat.Workflow { return chainWorkflow(tb, 12, url) }},
		{"wide-fanout", func(tb testing.TB, url string) *wfformat.Workflow { return fanoutWorkflow(tb, 24, url) }},
		{"diamond", func(tb testing.TB, url string) *wfformat.Workflow { return diamondWorkflow(tb, 4, 6, url) }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			forEachScheduling(t, func(t *testing.T, s Scheduling) {
				drive := sharedfs.NewMem()
				srv, _, _ := stubService(t, drive, time.Millisecond)
				m := fastManager(t, drive, func(o *Options) { o.Scheduling = s })
				w := shape.build(t, srv.URL)
				res, err := m.Run(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				checkEdges(t, w, res)
			})
		})
	}
}

// TestDependencyEliminatesPhaseDelays checks the headline claim on a
// deep chain: phase mode pays the inter-phase delay per level, so its
// wall time must exceed dependency mode's by at least half the total
// delay budget (conservative margin against scheduling noise).
func TestDependencyEliminatesPhaseDelays(t *testing.T) {
	const depth = 10
	run := func(mode Scheduling) time.Duration {
		drive := sharedfs.NewMem()
		srv, _, _ := stubService(t, drive, time.Millisecond)
		m := fastManager(t, drive, func(o *Options) {
			o.Scheduling = mode
			o.PhaseDelay = 2 // 4ms per barrier at TimeScale 0.002
		})
		res, err := m.Run(context.Background(), chainWorkflow(t, depth, srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		return res.Wall
	}
	phases := run(SchedulePhases)
	dep := run(ScheduleDependency)
	delayBudget := time.Duration(depth-1) * 4 * time.Millisecond
	if phases-dep < delayBudget/2 {
		t.Fatalf("dependency mode saved only %v over phases %v; want at least %v", phases-dep, phases, delayBudget/2)
	}
}

// TestDependencyCancelMidDispatch is the cancellation satellite: cancel
// while tasks are in flight; under either rule the loop must drain its
// workers, record partial TaskResults for every task, return ctx.Err(),
// and leak no goroutines.
func TestDependencyCancelMidDispatch(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, s Scheduling) {
		before := runtime.NumGoroutine()

		drive := sharedfs.NewMem()
		srv, _, _ := stubService(t, drive, 30*time.Millisecond)
		m := fastManager(t, drive, func(o *Options) {
			o.Scheduling = s
			o.MaxParallel = 4
			o.InputWait = 1
		})
		w := translated(t, "epigenomics", 30, srv.URL)

		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(15 * time.Millisecond) // mid first wave
			cancel()
		}()
		res, err := m.Run(ctx, w)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		// Partial results: every task is accounted — completed, cancelled,
		// or skipped — plus header and tail.
		if len(res.Tasks) != w.Len()+2 {
			t.Fatalf("recorded %d task results, want %d", len(res.Tasks), w.Len()+2)
		}
		if len(res.Failed) == 0 {
			t.Fatal("cancellation recorded no failed tasks")
		}

		// No goroutine leaks: the worker pool and any watch subscriptions
		// must be gone once the stub's in-flight handlers drain.
		srv.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			now := runtime.NumGoroutine()
			if now <= before+2 {
				break
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutines: before=%d now=%d\n%s", before, now, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestDependencyFailFastCancelsPending: without ContinueOnError the
// first failure cancels its queued and in-flight siblings under either
// rule — they end with the cancellation, not with a served response.
func TestDependencyFailFastCancelsPending(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, s Scheduling) {
		drive := sharedfs.NewMem()
		var served atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req wfbench.Request
			json.NewDecoder(r.Body).Decode(&req)
			switch {
			case req.Name == "root":
				drive.WriteFile("out_root", 1)
			case req.Name == "f000":
				http.Error(w, "boom", http.StatusBadRequest)
				return
			default: // a slow sibling: outlives f000's failure unless cancelled
				select {
				case <-r.Context().Done():
					return
				case <-time.After(2 * time.Second):
				}
			}
			served.Add(1)
			json.NewEncoder(w).Encode(&wfbench.Response{Name: req.Name, OK: true})
		}))
		defer srv.Close()
		m := fastManager(t, drive, func(o *Options) { o.Scheduling = s; o.MaxParallel = 4 })
		w := fanoutWorkflow(t, 12, srv.URL)
		began := time.Now()
		res, err := m.Run(context.Background(), w)
		if err == nil || !strings.Contains(err.Error(), "13 function(s) failed") {
			t.Fatalf("err = %v, want the 12 siblings and the sink failed", err)
		}
		if took := time.Since(began); took > time.Second {
			t.Fatalf("run took %v: siblings were waited for, not cancelled", took)
		}
		if served.Load() != 1 {
			t.Fatalf("%d functions served, want only the root", served.Load())
		}
		for _, name := range res.Failed {
			if name != "f000" && name != "sink" && !errors.Is(res.Tasks[name].Err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", name, res.Tasks[name].Err)
			}
		}
	})
}

// TestSkipStageInputs covers the satellite fix: New no longer forces
// staging on, and the flag actually controls behaviour.
func TestSkipStageInputs(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		// Default: external inputs are staged by the header.
		drive := sharedfs.NewMem()
		srv, _, _ := stubService(t, drive, time.Millisecond)
		m := fastManager(t, drive, func(o *Options) { o.Scheduling = mode })
		w := translated(t, "blast", 8, srv.URL)
		if _, err := m.Run(context.Background(), w); err != nil {
			t.Fatalf("default staging run: %v", err)
		}
		ext := w.ExternalInputs()
		if len(ext) == 0 {
			t.Fatal("test workflow has no external inputs")
		}
		for _, f := range ext {
			if !drive.Exists(f.Name) {
				t.Fatalf("external input %s not staged by default", f.Name)
			}
		}

		// SkipStageInputs with a pre-populated drive: run succeeds
		// without the header writing anything.
		drive2 := sharedfs.NewMem()
		srv2, _, _ := stubService(t, drive2, time.Millisecond)
		m2 := fastManager(t, drive2, func(o *Options) {
			o.Scheduling = mode
			o.SkipStageInputs = true
		})
		w2 := translated(t, "blast", 8, srv2.URL)
		for _, f := range w2.ExternalInputs() {
			if err := drive2.WriteFile(f.Name, f.SizeInBytes); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m2.Run(context.Background(), w2); err != nil {
			t.Fatalf("SkipStageInputs with pre-staged drive: %v", err)
		}

		// SkipStageInputs with an empty drive: root inputs never
		// appear, so the run must fail (quick input wait).
		drive3 := sharedfs.NewMem()
		srv3, _, _ := stubService(t, drive3, time.Millisecond)
		m3 := fastManager(t, drive3, func(o *Options) {
			o.Scheduling = mode
			o.SkipStageInputs = true
			o.InputWait = 0.5
		})
		w3 := translated(t, "blast", 8, srv3.URL)
		if _, err := m3.Run(context.Background(), w3); err == nil {
			t.Fatal("run succeeded with no inputs staged anywhere")
		}
	})
}

// TestEmptyArgumentsRejectedUpFront covers the invokeOnce guard
// satellite: a task with no argument block fails validation with a
// clear error — wfformat's, the only check that can see it first —
// instead of panicking at Arguments[0].
func TestEmptyArgumentsRejectedUpFront(t *testing.T) {
	drive := sharedfs.NewMem()
	m := fastManager(t, drive, nil)
	w := wfformat.New("malformed")
	task := synthTask("only", "http://localhost/none", nil)
	task.Command.Arguments = nil // malformed translated JSON
	if err := w.AddTask(task); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Scheduling{SchedulePhases, ScheduleDependency} {
		m.opts.Scheduling = mode
		_, err := m.Run(context.Background(), w)
		if err == nil {
			t.Fatalf("%v: malformed workflow executed", mode)
		}
		if !strings.Contains(err.Error(), `task "only" has 0 argument blocks, want 1`) {
			t.Fatalf("%v: err = %v, want wfformat's argument-block complaint", mode, err)
		}
	}
}

// TestPlanGuardsEmptyArguments exercises the defensive check directly:
// since the hot path serves pre-encoded bodies, the argument-block
// guard that used to live in invokeOnce now fails plan construction.
func TestPlanGuardsEmptyArguments(t *testing.T) {
	task := synthTask("bare", "http://localhost/none", nil)
	task.Command.Arguments = nil
	p, err := newInvocationPlan([]*wfformat.Task{task}, nil)
	if err == nil || p != nil {
		t.Fatalf("newInvocationPlan = %v, %v; want argument-block error", p, err)
	}
	if !strings.Contains(err.Error(), "argument") {
		t.Fatalf("err = %v, want argument-block complaint", err)
	}
}

// TestDependencyQueueWaitUnderThrottle: with MaxParallel=1 on a wide
// fan-out, siblings are released together but start serially, so
// queueing latency must be visible in the recorded results.
func TestDependencyQueueWaitUnderThrottle(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, s Scheduling) {
		drive := sharedfs.NewMem()
		srv, _, _ := stubService(t, drive, 5*time.Millisecond)
		m := fastManager(t, drive, func(o *Options) { o.Scheduling = s; o.MaxParallel = 1 })
		w := fanoutWorkflow(t, 6, srv.URL)
		res, err := m.Run(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		var maxWait time.Duration
		for _, tr := range res.Tasks {
			maxWait = max(maxWait, tr.QueueWait())
		}
		// Five siblings queue behind the first at ~5ms each.
		if maxWait < 10*time.Millisecond {
			t.Fatalf("max queue wait = %v, want >= 10ms with MaxParallel=1", maxWait)
		}
	})
}
