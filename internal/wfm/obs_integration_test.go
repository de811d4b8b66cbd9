package wfm

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

// TestRunEmitsSpans drives a sampled run in both scheduling modes and
// checks the span tree: one root, one span per task (backdated to its
// ready instant, annotated with queueing latency and attempts), one
// invoke span per attempt, all sharing the root's trace ID.
func TestRunEmitsSpans(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		drive := sharedfs.NewMem()
		srv, _, _ := stubService(t, drive, time.Millisecond)
		tracer := obs.NewTracer(obs.Options{SampleRatio: 1})
		m := fastManager(t, drive, func(o *Options) {
			o.Scheduling = mode
			o.Tracer = tracer
		})
		w := translated(t, "blast", 8, srv.URL)
		res, err := m.Run(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if res.TraceID == "" {
			t.Fatal("sampled run has no TraceID")
		}
		nTasks := len(res.Tasks) - 2 // minus synthetic header/tail
		var root, tasks, invokes int
		for _, s := range res.Spans {
			if s.Trace.String() != res.TraceID {
				t.Fatalf("span %q in foreign trace %s", s.Name, s.Trace)
			}
			switch {
			case strings.HasPrefix(s.Name, "workflow:"):
				root++
				if !s.Parent.IsZero() {
					t.Fatal("root span has a parent")
				}
			case s.Name == "invoke":
				invokes++
			default:
				tasks++
				if q, ok := s.AttrFloat("queue_ms"); !ok || q < 0 {
					t.Fatalf("task span %q queue_ms = %v, %v", s.Name, q, ok)
				}
				if a, ok := s.AttrFloat("attempts"); !ok || a != 1 {
					t.Fatalf("task span %q attempts = %v, %v", s.Name, a, ok)
				}
			}
		}
		if root != 1 || tasks != nTasks || invokes != nTasks {
			t.Fatalf("spans: root=%d tasks=%d invokes=%d, want 1/%d/%d",
				root, tasks, invokes, nTasks, nTasks)
		}

		tr := TraceOf(res)
		if tr.TraceID != res.TraceID || len(tr.Spans) != len(res.Spans) {
			t.Fatal("TraceOf dropped span data")
		}
		var chrome bytes.Buffer
		if err := tr.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		back, err := obs.ParseChromeTrace(bytes.NewReader(chrome.Bytes()))
		if err != nil {
			t.Fatalf("chrome trace does not parse back: %v", err)
		}
		if len(back) != len(tr.Spans) {
			t.Fatalf("chrome round trip: %d of %d spans", len(back), len(tr.Spans))
		}
		path := tr.SpanCriticalPath()
		if len(path) < 2 || !strings.HasPrefix(path[0].Name, "workflow:") {
			t.Fatalf("critical path = %d spans starting at %q", len(path), path[0].Name)
		}
	})
}

// TestUnsampledRunHasNoSpans: tracing off and tracing unsampled both
// yield a span-free Result.
func TestUnsampledRunHasNoSpans(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, 0)
	tracer := obs.NewTracer(obs.Options{SampleRatio: 1.0 / (1 << 30)})
	tracer.StartRoot("warm", obs.LayerWFM).Finish()
	tracer.Take()
	m := fastManager(t, drive, func(o *Options) { o.Tracer = tracer })
	res, err := m.Run(context.Background(), translated(t, "blast", 6, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" || len(res.Spans) != 0 {
		t.Fatalf("unsampled run recorded TraceID=%q spans=%d", res.TraceID, len(res.Spans))
	}
}

// TestTraceparentInjection checks the header on the wire: absent with
// tracing off, present and parseable on a sampled run, and the shared
// template header map is never touched.
func TestTraceparentInjection(t *testing.T) {
	drive := sharedfs.NewMem()
	var mu sync.Mutex
	headers := []string{}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers = append(headers, r.Header.Get("Traceparent"))
		mu.Unlock()
		var req wfbench.Request
		json.NewDecoder(r.Body).Decode(&req)
		for name, size := range req.Out {
			drive.WriteFile(name, size)
		}
		json.NewEncoder(w).Encode(&wfbench.Response{Name: req.Name, OK: true})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	m := fastManager(t, drive, nil)
	if _, err := m.Run(context.Background(), translated(t, "blast", 6, srv.URL)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, hv := range headers {
		if hv != "" {
			t.Fatalf("traceparent %q sent with tracing off", hv)
		}
	}
	headers = headers[:0]
	mu.Unlock()

	tracer := obs.NewTracer(obs.Options{SampleRatio: 1})
	m2 := fastManager(t, drive, func(o *Options) { o.Tracer = tracer })
	res, err := m2.Run(context.Background(), translated(t, "blast", 6, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(headers) == 0 {
		t.Fatal("no invocations observed")
	}
	for _, hv := range headers {
		sc, ok := obs.ParseTraceparent(hv)
		if !ok {
			t.Fatalf("invalid traceparent on the wire: %q", hv)
		}
		if !sc.Sampled || sc.TraceID.String() != res.TraceID {
			t.Fatalf("traceparent %q does not match run trace %s", hv, res.TraceID)
		}
	}
	if len(sharedJSONHeader) != 1 || sharedJSONHeader.Get("Traceparent") != "" {
		t.Fatal("shared template header map was mutated")
	}
}

// TestTraceRoundTripSpanFields: JSON round-trip preserves the new span
// and telemetry fields; CSV carries the ready_ms and attempts columns.
func TestTraceRoundTripSpanFields(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, time.Millisecond)
	tracer := obs.NewTracer(obs.Options{SampleRatio: 1})
	m := fastManager(t, drive, func(o *Options) {
		o.Scheduling = ScheduleDependency
		o.Tracer = tracer
	})
	res, err := m.Run(context.Background(), translated(t, "blast", 8, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	tr := TraceOf(res)

	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.TraceID != tr.TraceID {
		t.Fatalf("TraceID %q != %q after round trip", parsed.TraceID, tr.TraceID)
	}
	if len(parsed.Spans) != len(tr.Spans) {
		t.Fatalf("spans %d != %d after round trip", len(parsed.Spans), len(tr.Spans))
	}
	for i := range parsed.Spans {
		if parsed.Spans[i].SpanID != tr.Spans[i].SpanID || parsed.Spans[i].Parent != tr.Spans[i].Parent ||
			parsed.Spans[i].StartMS != tr.Spans[i].StartMS || parsed.Spans[i].DurMS != tr.Spans[i].DurMS {
			t.Fatalf("span %d changed in round trip", i)
		}
	}
	for i := range parsed.Events {
		if parsed.Events[i].ReadyMS != tr.Events[i].ReadyMS || parsed.Events[i].Attempts != tr.Events[i].Attempts {
			t.Fatalf("event %d ready/attempts changed in round trip", i)
		}
	}

	var csvb strings.Builder
	if err := tr.WriteCSV(&csvb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(csvb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := strings.Join(rows[0], ",")
	if header != "name,category,phase,ready_ms,start_ms,end_ms,attempts,pod,error" {
		t.Fatalf("csv header = %q", header)
	}
	if len(rows) != len(tr.Events)+1 {
		t.Fatalf("csv rows = %d, want %d", len(rows), len(tr.Events)+1)
	}
}

// TestMonitorCounts runs a workflow with a Monitor attached and checks
// the live plane drains to a consistent final state, and that the
// exposition output is well-typed.
func TestMonitorCounts(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, _, _ := stubService(t, drive, 0)
	mon := NewMonitor()
	m := fastManager(t, drive, func(o *Options) {
		o.Scheduling = ScheduleDependency
		o.Monitor = mon
		o.Logger = slog.New(slog.NewTextHandler(new(bytes.Buffer), nil))
	})
	res, err := m.Run(context.Background(), translated(t, "blast", 8, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	nTasks := int64(len(res.Tasks) - 2)
	s := mon.Snapshot()
	if s.Workflow == "" || s.Scheduling != "dependency" {
		t.Fatalf("snapshot identity = %+v", s)
	}
	if s.Ready != 0 || s.Running != 0 {
		t.Fatalf("gauges not drained: %+v", s)
	}
	if s.Done != nTasks || s.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", s.Done, s.Failed, nTasks)
	}
	if got := mon.latency.Count(); got != uint64(nTasks) {
		t.Fatalf("latency observations = %d, want %d", got, nTasks)
	}

	var buf bytes.Buffer
	if err := mon.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE wfm_tasks_done_total counter",
		"# TYPE wfm_tasks_ready gauge",
		"# TYPE wfm_invocation_seconds histogram",
		"wfm_invocation_seconds_bucket",
		"wfm_breakers_open 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMonitorSkippedAndFailed: in dependency mode a failing ancestor
// marks its descendants failed without them ever becoming ready.
func TestMonitorSkippedAndFailed(t *testing.T) {
	srv := failingServer(t)
	mon := NewMonitor()
	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.Scheduling = ScheduleDependency
		o.Monitor = mon
	})
	w := chainWorkflow(t, 4, srv.URL)
	if _, err := m.Run(context.Background(), w); err == nil {
		t.Fatal("failing run succeeded")
	}
	s := mon.Snapshot()
	if s.Ready != 0 || s.Running != 0 {
		t.Fatalf("gauges not drained: %+v", s)
	}
	if s.Done != 0 || s.Failed != 4 {
		t.Fatalf("done=%d failed=%d, want 0/4 (1 failure + 3 skips)", s.Done, s.Failed)
	}
}

// TestNilMonitorSafe: the monitor's read side is callable on nil, and a
// run without a monitor has no monitor sink to call.
func TestNilMonitorSafe(t *testing.T) {
	var mon *Monitor
	if sinks := (&Manager{}).newSinks(&runState{}, nil); len(sinks) != 0 {
		t.Fatalf("a run with nothing on has sinks %v", sinks)
	}
	if s := mon.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	var buf bytes.Buffer
	if err := mon.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
}
