package core

import (
	"bytes"
	"context"
	"testing"

	"wfserverless/internal/obs"
	"wfserverless/internal/wfm"
)

// TestThreeLayerTrace is the end-to-end observability check: one run on
// the Knative platform with tracing sampled must produce a single trace
// whose spans come from all three layers (workflow manager, platform,
// WfBench), export cleanly as Chrome trace-event JSON, and yield a
// critical path that descends from the workflow root across the layer
// boundary.
func TestThreeLayerTrace(t *testing.T) {
	tr := obs.NewTracer(obs.Options{SampleRatio: 1})
	mon := wfm.NewMonitor()
	s := testSession(t, SessionConfig{
		Platform: knativeConfig(),
		Manager:  wfm.Options{Scheduling: wfm.ScheduleDependency, Monitor: mon},
		Tracer:   tr,
	})
	res, err := s.RunRecipe(context.Background(), "blast", 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("run has no trace ID")
	}
	if len(res.Spans) == 0 {
		t.Fatal("run collected no spans")
	}

	layers := map[string]int{}
	names := map[string]int{}
	for _, sp := range res.Spans {
		layers[sp.Layer]++
		names[sp.Name]++
		if sp.Trace.String() != res.TraceID {
			t.Fatalf("span %s belongs to trace %s, run is %s", sp.Name, sp.Trace, res.TraceID)
		}
	}
	for _, layer := range []string{obs.LayerWFM, obs.LayerPlatform, obs.LayerWfbench} {
		if layers[layer] == 0 {
			t.Fatalf("no spans from layer %q (layers: %v)", layer, layers)
		}
	}
	for _, name := range []string{"invoke", "queue", "execute", "coldstart", "cpu", "outputs"} {
		if names[name] == 0 {
			t.Fatalf("no %q spans recorded (names: %v)", name, names)
		}
	}

	trace := wfm.TraceOf(res)
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ParseChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(res.Spans) {
		t.Fatalf("chrome trace has %d records for %d spans", len(recs), len(res.Spans))
	}

	path := trace.SpanCriticalPath()
	if len(path) < 3 {
		t.Fatalf("critical path has %d spans, want a multi-layer chain", len(path))
	}
	if path[0].Layer != obs.LayerWFM {
		t.Fatalf("critical path starts in layer %q, want the workflow root", path[0].Layer)
	}
	crossed := false
	for _, r := range path {
		if r.Layer != obs.LayerWFM {
			crossed = true
		}
	}
	if !crossed {
		t.Fatalf("critical path never leaves the WFM layer: %+v", path)
	}

	snap := mon.Snapshot()
	if snap.Done != 12 || snap.Running != 0 || snap.Failed != 0 {
		t.Fatalf("monitor snapshot after run = %+v", snap)
	}
	if snap.Workflow == "" {
		t.Fatal("monitor did not record the workflow name")
	}
}
