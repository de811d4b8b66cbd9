package experiments

import (
	"testing"

	"wfserverless/internal/obs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfm"
)

// TestScaleCarriesTrace pins the -trace plumbing of the scale suite:
// with TraceSample set, the result carries a trace whose root is the
// workflow span; without it, no trace rides along.
func TestScaleCarriesTrace(t *testing.T) {
	c, err := newScale(Config{Tasks: 60, Shape: "chain", Scheduling: wfm.ScheduleDependency, Parallel: 16, TraceSample: 1})
	rows, _ := runCampaign(t, c, err)
	res := rows[0]
	if res.Trace == nil || res.Trace.TraceID == "" {
		t.Fatal("TraceSample=1 produced no trace")
	}
	if len(res.Trace.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	if res.Trace.Spans[0].Name != "workflow:"+res.Trace.Workflow {
		t.Fatalf("first span = %q, want the workflow root", res.Trace.Spans[0].Name)
	}
	if path := res.Trace.SpanCriticalPath(); len(path) < 2 {
		t.Fatalf("critical path has %d spans", len(path))
	}

	c, err = newScale(Config{Tasks: 10, Shape: "chain", Scheduling: wfm.ScheduleDependency, Parallel: 4})
	if rows, _ = runCampaign(t, c, err); rows[0].Trace != nil {
		t.Fatal("tracing off but a trace rode along")
	}
}

// TestResilienceCarriesTrace pins the same plumbing through the fault
// injector: spans survive the flaky endpoint, including WfBench phase
// leaves that crossed the HTTP hop via Traceparent.
func TestResilienceCarriesTrace(t *testing.T) {
	c, err := newResilience(Config{
		Tasks:       12,
		TimeScale:   0.002,
		Faults:      wfbench.FaultProfile{ErrorRate: 0.2, Seed: 5},
		TraceSample: 1,
	})
	if err == nil {
		c.env.workers = 8
	}
	ms, _ := runCampaign(t, c, err)
	if len(ms) != 2 {
		t.Fatalf("rows = %d, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Trace == nil || len(m.Trace.Spans) == 0 {
			t.Fatalf("%s: no trace collected", m.Mode)
		}
		layers := map[string]bool{}
		for _, sp := range m.Trace.Spans {
			layers[sp.Layer] = true
		}
		if !layers[obs.LayerWFM] || !layers[obs.LayerWfbench] {
			t.Fatalf("%s: trace layers = %v, want wfm and wfbench", m.Mode, layers)
		}
	}
}
