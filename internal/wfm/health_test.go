package wfm

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/health"
	"wfserverless/internal/journal"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

// slowOnceService is a stub endpoint that delays the FIRST request for
// each name in slow by delay (wall time) — a bad-placement tail: the
// speculative backup attempt for the same task lands on a fast path.
func slowOnceService(t *testing.T, drive sharedfs.Drive, slow map[string]bool, delay time.Duration) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	seen := map[string]int{}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wfbench.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen[req.Name]++
		first := seen[req.Name] == 1
		mu.Unlock()
		if slow[req.Name] && first {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(delay):
			}
		} else {
			time.Sleep(2 * time.Millisecond)
		}
		for name, size := range req.Out {
			drive.WriteFile(name, size)
		}
		json.NewEncoder(w).Encode(&wfbench.Response{Name: req.Name, OK: true})
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthBaselinesInResult(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, time.Millisecond)
	m := fastManager(t, drive, func(o *Options) {
		o.Scheduling = ScheduleDependency
		o.Health = &HealthOptions{}
	})
	w := fanoutWorkflow(t, 10, srv.URL)
	res, err := m.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health == nil {
		t.Fatal("Result.Health missing with Options.Health set")
	}
	if len(res.Health.Endpoints) != 1 {
		t.Fatalf("endpoints = %+v, want one", res.Health.Endpoints)
	}
	e := res.Health.Endpoints[0]
	if e.Attempts != 12 { // root + 10 fan + sink
		t.Fatalf("attempts = %d, want 12", e.Attempts)
	}
	if e.P50 <= 0 || e.P95 < e.P50 {
		t.Fatalf("quantiles not populated: %+v", e)
	}
	if e.Failures != 0 || len(res.Health.Stragglers) != 0 {
		t.Fatalf("clean run reported trouble: %+v", res.Health)
	}
}

// TestHealthResultNilWhenOff pins that a run without Options.Health has
// a nil Health report — the plane is genuinely absent, not empty.
func TestHealthResultNilWhenOff(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, time.Millisecond)
	m := fastManager(t, drive, nil)
	res, err := m.Run(context.Background(), fanoutWorkflow(t, 3, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if res.Health != nil {
		t.Fatalf("Result.Health = %+v without Options.Health", res.Health)
	}
}

// TestHealthSpeculativeRetry drives the acceptance scenario through both
// scheduling modes with journal and memoization on: one task's first
// attempt hangs far past its endpoint's median, the watchdog must flag
// it before it completes, the speculative backup must win, and the
// journal must still record exactly one completion per task.
func TestHealthSpeculativeRetry(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		drive := sharedfs.NewMem()
		slow := map[string]bool{"f003": true}
		srv := slowOnceService(t, drive, slow, 2*time.Second)
		dir := t.TempDir()
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		cache := openCache(t, filepath.Join(t.TempDir(), "memo.cache"))
		defer cache.Close()

		rec := health.NewFlightRecorder(256)
		m := fastManager(t, drive, func(o *Options) {
			o.Scheduling = mode
			o.Journal = j
			o.Memoize = cache
			o.Health = &HealthOptions{
				StragglerFactor:  3,
				MinSamples:       4,
				SpeculativeRetry: true,
				Recorder:         rec,
			}
		})
		w := fanoutWorkflow(t, 12, srv.URL)
		start := time.Now()
		res, err := m.Run(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if wall := time.Since(start); wall > time.Second {
			t.Fatalf("run took %v: speculation did not rescue the straggler", wall)
		}
		if res.Health == nil {
			t.Fatal("no health report")
		}
		var flagged []string
		for _, s := range res.Health.Stragglers {
			flagged = append(flagged, s.Task)
		}
		if len(flagged) == 0 || !contains(flagged, "f003") {
			t.Fatalf("stragglers = %v, want f003 flagged", flagged)
		}
		if res.Health.SpeculativeRetries == 0 || res.Health.SpeculativeWins == 0 {
			t.Fatalf("speculation accounting: %+v", res.Health)
		}
		if tr := res.Tasks["f003"]; tr == nil || tr.Err != nil {
			t.Fatalf("straggler task result: %+v", tr)
		}

		// Journal safety: every task has exactly one terminal record and
		// the speculation race never double-completed anything.
		sum, err := ReadRunJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		total := 14 // 12 fan + root + sink
		if sum.CompletedTasks != total {
			t.Fatalf("journal completed = %d, want %d", sum.CompletedTasks, total)
		}
		if got := sum.EventCounts["task-completed"] + sum.EventCounts["task-memoized"]; got != total {
			t.Fatalf("terminal records = %d, want %d (duplicate completion?)", got, total)
		}

		// The flight recorder saw the straggler flag and the speculation.
		kinds := map[string]bool{}
		for _, ev := range rec.Events() {
			kinds[ev.Kind] = true
		}
		for _, k := range []string{"run-start", "task-start", "straggler", "speculate", "speculate-win", "task-done", "run-end"} {
			if !kinds[k] {
				t.Fatalf("flight recorder missing %q events (have %v)", k, kinds)
			}
		}
	})
}

// TestHealthStragglerWithoutSpeculation pins detection-only mode: the
// straggler is flagged while still in flight but the run waits it out.
func TestHealthStragglerWithoutSpeculation(t *testing.T) {
	drive := sharedfs.NewMem()
	srv := slowOnceService(t, drive, map[string]bool{"f001": true}, 150*time.Millisecond)
	m := fastManager(t, drive, func(o *Options) {
		o.Scheduling = ScheduleDependency
		o.Health = &HealthOptions{StragglerFactor: 3, MinSamples: 4}
	})
	res, err := m.Run(context.Background(), fanoutWorkflow(t, 10, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for _, s := range res.Health.Stragglers {
		flagged = append(flagged, s.Task)
	}
	if !contains(flagged, "f001") {
		t.Fatalf("stragglers = %v, want f001", flagged)
	}
	if res.Health.SpeculativeRetries != 0 {
		t.Fatalf("speculation ran without SpeculativeRetry: %+v", res.Health)
	}
	// The straggler span attr marks the flagged task for trace tooling.
	if res.TraceID != "" {
		sawAttr := false
		for i := range res.Spans {
			if v, ok := res.Spans[i].AttrString("straggler"); ok && v == "true" {
				sawAttr = true
			}
		}
		if !sawAttr {
			t.Fatal("no span carries the straggler attr")
		}
	}
}

// TestHealthEndpointSpanAttr pins the endpoint/cold-start attrs analyze
// -diff groups by.
func TestHealthEndpointSpanAttr(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, time.Millisecond)
	m := fastManager(t, drive, func(o *Options) {
		o.Tracer = obs.NewTracer(obs.Options{SampleRatio: 1})
	})
	res, err := m.Run(context.Background(), fanoutWorkflow(t, 3, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	saw := 0
	for i := range res.Spans {
		if res.Spans[i].Name != "invoke" {
			continue
		}
		if ep, ok := res.Spans[i].AttrString("endpoint"); !ok || !strings.HasPrefix(ep, srv.URL) {
			t.Fatalf("invoke span endpoint attr = %q", ep)
		}
		saw++
	}
	if saw == 0 {
		t.Fatal("no invoke spans recorded")
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
