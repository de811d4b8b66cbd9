package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"wfserverless/internal/obs"
	"wfserverless/internal/serverless"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

// TestConfigureTableII pins the paradigm mapping: every field of the
// platform options and the service each Table II paradigm runs on, under
// the default tunables. The values are transcribed by hand from what the
// earlier session configuration provisioned; do not regenerate them from
// Configure.
func TestConfigureTableII(t *testing.T) {
	const (
		mb = int64(1) << 20
		gb = int64(1) << 30
	)
	knative := serverless.Options{
		TimeScale: 0.02, ColdStart: 2, AutoscalePeriod: 1, StableWindow: 6,
		PodOverheadMem: 80 * mb, WorkerOverheadMem: 64 * mb, PodOverheadCPU: 0.05, InputWait: 30,
	}
	coarse := knative
	coarse.ColdStart = 0
	local := serverless.Options{
		TimeScale: 0.02, PodOverheadMem: 80 * mb, WorkerOverheadMem: 64 * mb, PodOverheadCPU: 0.05, InputWait: 30,
	}
	for _, c := range []struct {
		id   Paradigm
		opts serverless.Options
		svc  serverless.ServiceConfig
	}{
		{Kn1wPM, knative, serverless.ServiceConfig{Name: "wfbench", Workers: 1,
			CPURequestPerWorker: 0.5, MemRequestPerWorker: 64 * mb, KeepMem: true}},
		{Kn1wNoPM, knative, serverless.ServiceConfig{Name: "wfbench", Workers: 1,
			CPURequestPerWorker: 0.5, MemRequestPerWorker: 64 * mb}},
		{Kn10wNoPM, knative, serverless.ServiceConfig{Name: "wfbench", Workers: 10,
			CPURequestPerWorker: 0.5, MemRequestPerWorker: 64 * mb}},
		{Kn1000wPM, coarse, serverless.ServiceConfig{Name: "wfbench", Workers: 1000,
			CPURequestPerWorker: 0.046, MemRequestPerWorker: 167503724, MinScale: 1, MaxScale: 1, KeepMem: true}},
		{LC1wPM, local, serverless.ServiceConfig{Name: "wfbench", Workers: 1,
			CPURequestPerWorker: 2, MinScale: 48, MaxScale: 48, MemLimit: 3 * gb, KeepMem: true}},
		{LC1wNoPM, local, serverless.ServiceConfig{Name: "wfbench", Workers: 1,
			CPURequestPerWorker: 2, MinScale: 48, MaxScale: 48, MemLimit: 3 * gb}},
		{LC10wNoPM, local, serverless.ServiceConfig{Name: "wfbench", Workers: 10,
			CPURequestPerWorker: 0.2, MinScale: 48, MaxScale: 48, MemLimit: 3 * gb}},
		{LC10wNoPMNoCR, local, serverless.ServiceConfig{Name: "wfbench", Workers: 10,
			MinScale: 48, MaxScale: 48}},
		{LC1000wPM, local, serverless.ServiceConfig{Name: "wfbench", Workers: 1000,
			CPURequestPerWorker: 0.046, MinScale: 1, MaxScale: 1, MemLimit: 156 * gb, KeepMem: true}},
	} {
		spec, err := ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		opts, svc, err := Configure(spec, DefaultTunables())
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if !reflect.DeepEqual(opts, c.opts) {
			t.Errorf("%s options:\n got %+v\nwant %+v", c.id, opts, c.opts)
		}
		if svc != c.svc {
			t.Errorf("%s service:\n got %+v\nwant %+v", c.id, svc, c.svc)
		}
	}
	if _, _, err := Configure(Spec{ID: "mystery", Kind: "mars", Workers: 1}, DefaultTunables()); err == nil {
		t.Error("unknown platform kind accepted")
	}
}

func TestNewTestbedValidation(t *testing.T) {
	spec, _ := ByID(Kn10wNoPM)
	tn := fastTunables()
	tn.TimeScale = -1
	if _, err := NewTestbed(spec, tn); err == nil {
		t.Fatal("negative TimeScale accepted")
	}
	if _, err := NewTestbed(Spec{ID: "mystery", Kind: "mars", Workers: 1}, fastTunables()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func testbed(t *testing.T, id Paradigm, tn Tunables) *Testbed {
	t.Helper()
	spec, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(spec, tn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

func generated(t *testing.T, recipe string, tasks int, seed int64) *wfformat.Workflow {
	t.Helper()
	w, err := wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: tasks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTestbedRunKnative: a Knative testbed serves every task of a run
// through its ingress.
func TestTestbedRunKnative(t *testing.T) {
	tb := testbed(t, Kn10wNoPM, fastTunables())
	res, err := tb.Run(context.Background(), generated(t, "blast", 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("res = %+v", res)
	}
	if tb.Platform.Requests() != 20 {
		t.Fatal("knative platform did not serve the workflow")
	}
	if tb.Platform.URL() == "" {
		t.Fatal("no URL")
	}
}

// TestTestbedRunLocal: a local-container testbed is its fleet held at
// fixed scale from the start: every container up, no cold start, its
// cores reserved.
func TestTestbedRunLocal(t *testing.T) {
	lc := testbed(t, LC10wNoPM, fastTunables())
	res, err := lc.Run(context.Background(), generated(t, "cycles", 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	p := lc.Platform
	if p.Requests() != 20 || p.Pods() != 48 || p.ColdStarts() != 0 || lc.Cluster.Snapshot().ReservedCores != 96 {
		t.Fatalf("requests %d, pods %d, cold starts %d, %+v: want 20 on 48 always-on containers, 96 cores",
			p.Requests(), p.Pods(), p.ColdStarts(), lc.Cluster.Snapshot())
	}
}

// TestTestbedReusableAcrossRuns: a testbed keeps its platform warm
// across runs.
func TestTestbedReusableAcrossRuns(t *testing.T) {
	tb := testbed(t, Kn10wNoPM, fastTunables())
	for i := int64(0); i < 3; i++ {
		if _, err := tb.Run(context.Background(), generated(t, "seismology", 10, i)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := tb.Platform.Requests(); got != 30 {
		t.Fatalf("requests = %d, want 30", got)
	}
}

func TestTestbedCloseIdempotent(t *testing.T) {
	tb := testbed(t, LC10wNoPM, fastTunables())
	if err := tb.Sampler.Start(); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	tb.Close()
}

// TestHybridPlacement is the paper's proposed per-step mapping on one
// platform: the dense blastall phase goes to the autoscaling "wfbench"
// service, everything else to a second service held at fixed scale,
// chosen per task by the translator's ServiceNamer.
func TestHybridPlacement(t *testing.T) {
	tb := testbed(t, Kn10wNoPM, fastTunables())
	if err := tb.Platform.Apply(serverless.ServiceConfig{
		Name: "local", Workers: 10, MinScale: 8, MaxScale: 8, CPURequestPerWorker: 0.2,
	}); err != nil {
		t.Fatal(err)
	}
	tw, err := translator.Knative(generated(t, "blast", 20, 1), translator.KnativeOptions{
		IngressURL: tb.Platform.URL(),
		Service: func(task *wfformat.Task) string {
			if task.Category == "blastall" {
				return "wfbench"
			}
			return "local"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Manager.Run(context.Background(), tw)
	if err != nil {
		t.Fatal(err)
	}
	served := map[string]int{}
	for _, tr := range res.Tasks {
		if tr.Response != nil {
			svc, _, _ := strings.Cut(tr.Response.Pod, "-pod-")
			served[svc]++
		}
	}
	if served["wfbench"] != 17 || served["local"] != 3 || len(served) != 2 {
		t.Fatalf("served by service = %v, want 17 blastall on wfbench and 3 on local", served)
	}
}

// TestTranslateSetsURLs: every task of a workflow translated onto a
// testbed's ingress calls an endpoint under the platform's URL.
func TestTranslateSetsURLs(t *testing.T) {
	tb := testbed(t, Kn10wNoPM, fastTunables())
	tw, err := translator.Knative(generated(t, "bwa", 10, 1), translator.KnativeOptions{IngressURL: tb.Platform.URL()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tw.TaskNames() {
		if !strings.HasPrefix(tw.Tasks[name].Command.APIURL, tb.Platform.URL()) {
			t.Fatalf("task %s URL = %q", name, tw.Tasks[name].Command.APIURL)
		}
	}
}

// TestThreeLayerTrace is the end-to-end observability check: one run on
// the Knative platform with tracing sampled must produce a single trace
// whose spans come from all three layers (workflow manager, platform,
// WfBench), export cleanly as Chrome trace-event JSON, and yield a
// critical path that descends from the workflow root across the layer
// boundary.
func TestThreeLayerTrace(t *testing.T) {
	tr := obs.NewTracer(obs.Options{SampleRatio: 1})
	mon := wfm.NewMonitor()
	tn := fastTunables()
	tn.Manager.Scheduling, tn.Manager.Monitor, tn.Tracer = wfm.ScheduleDependency, mon, tr
	s := testbed(t, Kn10wNoPM, tn)
	res, err := s.Run(context.Background(), generated(t, "blast", 12, 7))
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
