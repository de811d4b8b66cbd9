package wfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
)

func tracedBench(t *testing.T, tr *obs.Tracer) *Bench {
	t.Helper()
	b, err := New(Config{Drive: sharedfs.NewMem(), TimeScale: 0.001, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServicePhaseSpansFromHeader drives POST /wfbench with a
// Traceparent header and checks the worker emits its phase leaves
// parented onto the propagated span.
func TestServicePhaseSpansFromHeader(t *testing.T) {
	tr := obs.NewTracer(obs.Options{SampleRatio: 1})
	s, err := NewService(tracedBench(t, tr), 2)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.StartRoot("invoke", obs.LayerWFM)
	rootCtx := root.Context()

	body, _ := json.Marshal(&Request{
		Name: "f1", PercentCPU: 0.5, CPUWork: 10, MemBytes: 1 << 20,
		Out: map[string]int64{"f1_out": 4},
	})
	req := httptest.NewRequest("POST", "/wfbench", bytes.NewReader(body))
	req.Header.Set("Traceparent", rootCtx.Traceparent())
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	root.Finish()
	spans := tr.Take()
	counts := map[string]int{}
	for _, sp := range spans {
		counts[sp.Name]++
		if sp.Name == "memory" || sp.Name == "cpu" || sp.Name == "outputs" {
			if sp.Layer != obs.LayerWfbench {
				t.Fatalf("%s layer = %q", sp.Name, sp.Layer)
			}
			if sp.Parent != rootCtx.SpanID {
				t.Fatalf("%s not parented to the propagated span", sp.Name)
			}
		}
	}
	for _, name := range []string{"memory", "cpu", "outputs"} {
		if counts[name] != 1 {
			t.Fatalf("span %q count = %d, want 1 (all: %v)", name, counts[name], counts)
		}
	}

	// Without the header, the same request must record nothing.
	req = httptest.NewRequest("POST", "/wfbench", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := tr.Take(); len(got) != 0 {
		t.Fatalf("headerless request recorded %d spans", len(got))
	}
}

// TestServiceMetricsExposition checks the standalone service's
// /metrics: counters typed counter, gauges gauge, and a complete
// execution-latency histogram.
func TestServiceMetricsExposition(t *testing.T) {
	s, err := NewService(tracedBench(t, nil), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(context.Background(), "", &Request{Name: "f1", PercentCPU: 0.5, CPUWork: 5}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	out := rec.Body.String()
	for _, frag := range []string{
		"# TYPE wfbench_workers gauge",
		"# TYPE wfbench_active gauge",
		"# TYPE wfbench_requests_total counter",
		"# TYPE wfbench_failures_total counter",
		"# TYPE wfbench_execution_seconds histogram",
		"wfbench_requests_total 1",
		"wfbench_workers 3",
		`wfbench_execution_seconds_bucket{le="+Inf"} 1`,
		"wfbench_execution_seconds_count 1",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("exposition missing %q in:\n%s", frag, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" &&
			strings.HasSuffix(f[2], "_total") && f[3] != "counter" {
			t.Fatalf("monotonic series %s typed %q", f[2], f[3])
		}
	}
}
