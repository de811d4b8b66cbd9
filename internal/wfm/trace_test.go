package wfm

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

func runBlast(t *testing.T) *Result {
	t.Helper()
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, time.Millisecond)
	m := fastManager(t, drive, nil)
	w := translated(t, "blast", 12, srv.URL)
	res, err := m.Run(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTraceOfOrderedAndComplete(t *testing.T) {
	res := runBlast(t)
	tr := TraceOf(res)
	if tr.Workflow != res.Workflow || tr.Makespan != res.Makespan {
		t.Fatalf("trace header: %+v", tr)
	}
	if len(tr.Events) != len(res.Tasks) {
		t.Fatalf("events = %d, want %d", len(tr.Events), len(res.Tasks))
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].StartMS < tr.Events[i-1].StartMS {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := TraceOf(runBlast(t))
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Events) != len(tr.Events) || parsed.Workflow != tr.Workflow {
		t.Fatal("round trip changed trace")
	}
}

func TestParseTraceBad(t *testing.T) {
	if _, err := ParseTrace(strings.NewReader("{nope")); err == nil {
		t.Fatal("bad trace accepted")
	}
}

func TestTraceCSV(t *testing.T) {
	tr := TraceOf(runBlast(t))
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(tr.Events)+1 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name,category,phase") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestCriticalEvents(t *testing.T) {
	tr := TraceOf(runBlast(t))
	crit := TraceOf(runBlast(t)).CriticalEvents()
	_ = tr
	// one critical event per phase that has events (header=0..tail)
	phases := map[int]bool{}
	for _, ev := range crit {
		if phases[ev.Phase] {
			t.Fatalf("duplicate phase %d in critical events", ev.Phase)
		}
		phases[ev.Phase] = true
	}
	if len(crit) < 3 {
		t.Fatalf("critical events = %d", len(crit))
	}
}

func TestRetriesRecoverFromTransient5xx(t *testing.T) {
	drive := sharedfs.NewMem()
	var calls atomic.Int64
	var mu sync.Mutex
	attempts := map[string]int{}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wfbench.Request
		json.NewDecoder(r.Body).Decode(&req)
		calls.Add(1)
		mu.Lock()
		attempts[req.Name]++
		first := attempts[req.Name] == 1
		mu.Unlock()
		// fail the first attempt of every function, succeed after
		if first {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		for name, size := range req.Out {
			drive.WriteFile(name, size)
		}
		json.NewEncoder(w).Encode(&wfbench.Response{Name: req.Name, OK: true})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	m := fastManager(t, drive, func(o *Options) {
		o.Retries = 2
		o.RetryBackoff = 0.1
	})
	w := translated(t, "blast", 8, srv.URL)
	if _, err := m.Run(context.Background(), w); err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if calls.Load() != 16 {
		t.Fatalf("calls = %d, want 2 per function", calls.Load())
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	drive := sharedfs.NewMem()
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad", http.StatusBadRequest)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	// ContinueOnError, so the first 400 does not cancel its sibling
	// before that one's request is sent.
	m := fastManager(t, drive, func(o *Options) { o.Retries = 3; o.ContinueOnError = true })
	w := translated(t, "seismology", 3, srv.URL)
	if _, err := m.Run(context.Background(), w); err == nil {
		t.Fatal("4xx run succeeded")
	}
	// phase 1 has 2 functions; each must be tried exactly once
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want no retries on 4xx", calls.Load())
	}
}

func TestRetriesExhausted(t *testing.T) {
	drive := sharedfs.NewMem()
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "always down", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	m := fastManager(t, drive, func(o *Options) { o.Retries = 2 })
	w := translated(t, "blast", 4, srv.URL)
	if _, err := m.Run(context.Background(), w); err == nil {
		t.Fatal("permanently failing run succeeded")
	}
	// first phase is 1 function: 1 + 2 retries
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3 attempts", calls.Load())
	}
}
