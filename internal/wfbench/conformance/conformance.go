// Package conformance is the one table every function-endpoint surface
// is held to, bare and behind the fault injector. Each surface's own
// package calls Run from a test, so the table imports none of them.
package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

// Surface is one implementation under test.
type Surface struct {
	// Handler is the surface as it is served; Executor is what it
	// serves, which the table also serves behind the fault injector.
	Handler  http.Handler
	Executor wfbench.Executor
	// Drive is where its functions publish their outputs.
	Drive sharedfs.Drive
	// Route addresses a function that executes; Unknown one the surface
	// does not have, which it answers with UnknownStatus.
	Route, Unknown string
	UnknownStatus  int
	// ChecksInputs says the function fails a request whose input file
	// never appears (the stub does not look).
	ChecksInputs bool
	// SawTrace reports whether an invocation ran under the trace.
	SawTrace func(obs.TraceID) bool
}

// Spy is an Executor (never a BatchExecutor, whatever it wraps) that
// notes the trace each invocation arrives under: the SawTrace of a
// surface that takes no tracer.
type Spy struct {
	wfbench.Executor
	seen sync.Map
}

func (s *Spy) Invoke(ctx context.Context, route string, req *wfbench.Request) (*wfbench.Response, error) {
	s.seen.Store(obs.SpanFromContext(ctx).TraceID, true)
	return s.Executor.Invoke(ctx, route, req)
}

// Saw reports whether an invocation arrived under the trace.
func (s *Spy) Saw(id obs.TraceID) bool {
	_, ok := s.seen.Load(id)
	return ok
}

// TracerSaw is the SawTrace of a surface that records into tr: a trace
// was seen if a span of it was recorded.
func TracerSaw(tr *obs.Tracer) func(obs.TraceID) bool {
	seen := make(map[obs.TraceID]bool)
	return func(id obs.TraceID) bool {
		for _, s := range tr.Take() {
			seen[s.Trace] = true
		}
		return seen[id]
	}
}

// Run drives the table against s: its Handler, and an Endpoint over its
// Executor behind a fault-free Injector.
func Run(t *testing.T, s Surface) {
	inj, err := wfbench.NewInjector(s.Executor, wfbench.FaultProfile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("bare", func(t *testing.T) { s.run(t, s.Handler, "bare-"+s.Route) })
	t.Run("injector", func(t *testing.T) { s.run(t, wfbench.NewEndpoint(inj), "inj-"+s.Route) })
}

func path(route, leaf string) string {
	if route == "" {
		return "/" + leaf
	}
	return "/" + route + "/" + leaf
}

func post(h http.Handler, method, path, traceparent string, body []byte) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	if traceparent != "" {
		r.Header.Set("Traceparent", traceparent)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func postBatch(t *testing.T, h http.Handler, path string, items []wfbench.BatchItem) []wfbench.BatchResult {
	t.Helper()
	rec := post(h, http.MethodPost, path, "", wfbench.EncodeBatchRequest(items))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != wfbench.BatchContentType {
		t.Fatalf("batch POST %s: status %d, Content-Type %q: %s", path, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	results, err := wfbench.DecodeBatchResponse(rec.Body)
	if err != nil || len(results) != len(items) {
		t.Fatalf("batch POST %s: %d frames for %d, err %v", path, len(results), len(items), err)
	}
	return results
}

func (s Surface) run(t *testing.T, h http.Handler, tag string) {
	task := func(name string, inputs ...string) []byte {
		name = tag + "-" + name
		b, err := json.Marshal(&wfbench.Request{Name: name, PercentCPU: 0.5, CPUWork: 1,
			Out: map[string]int64{name + ".out": 1}, Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	published := func(name string) {
		t.Helper()
		if !s.Drive.Exists(tag + "-" + name + ".out") {
			t.Errorf("%s: output not on the drive", name)
		}
	}
	failed := func(what string, payload []byte) {
		t.Helper()
		var resp wfbench.Response
		if err := json.Unmarshal(payload, &resp); err != nil || resp.OK || resp.Error == "" {
			t.Errorf("%s: body %q (%v), want the failed Response", what, payload, err)
		}
	}
	trace := func(n byte) obs.SpanContext {
		sc := obs.SpanContext{TraceID: obs.TraceID{n}, SpanID: obs.SpanID{n}, Sampled: true}
		copy(sc.TraceID[1:], tag)
		return sc
	}
	single, batch := path(s.Route, "wfbench"), path(s.Route, "invoke-batch")
	invalid, _ := json.Marshal(&wfbench.Request{Name: "x", PercentCPU: 3})

	for _, c := range []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"malformed JSON", http.MethodPost, single, []byte("{nope"), http.StatusBadRequest},
		{"Validate failure", http.MethodPost, single, invalid, http.StatusBadRequest},
		{"unknown route", http.MethodPost, path(s.Unknown, "wfbench"), task("lost"), s.UnknownStatus},
		{"GET on a POST route", http.MethodGet, single, nil, http.StatusNotFound},
		{"GET on the batch route", http.MethodGet, batch, nil, http.StatusNotFound},
		{"deep path", http.MethodPost, "/a/b/wfbench", task("deep"), http.StatusNotFound},
		{"corrupt batch body", http.MethodPost, batch, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, http.StatusBadRequest},
		{"healthz", http.MethodGet, "/healthz", nil, http.StatusOK},
	} {
		if rec := post(h, c.method, c.path, "", c.body); rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body)
		}
	}

	// The single-task wire: MarshalResponse plus a newline, typed and sized.
	rec := post(h, http.MethodPost, single, trace(1).Traceparent(), task("one"))
	body := rec.Body.Bytes()
	var resp wfbench.Response
	if err := wfbench.UnmarshalResponse(body, &resp); rec.Code != http.StatusOK || err != nil || !resp.OK {
		t.Fatalf("single POST: status %d, body %q (%v)", rec.Code, body, err)
	}
	if want, _ := wfbench.MarshalResponse(&resp); string(body) != string(want)+"\n" ||
		rec.Header().Get("Content-Type") != "application/json" ||
		rec.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
		t.Errorf("single POST wire: body %q, headers %v", body, rec.Header())
	}
	published("one")
	if !s.SawTrace(trace(1).TraceID) {
		t.Error("single POST: the Traceparent did not reach the executor")
	}
	if s.ChecksInputs {
		rec := post(h, http.MethodPost, single, "", task("doomed", tag+"-never-staged"))
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("function error: status %d, want 500", rec.Code)
		}
		failed("function error", rec.Body.Bytes())
	}

	// A batch answers frame by frame what single POSTs would have.
	items := []wfbench.BatchItem{
		{Body: task("b1"), Traceparent: trace(2).Traceparent()},
		{Body: []byte("{nope")},
		{Body: task("b2")},
		{Body: invalid},
	}
	want := []int{http.StatusOK, http.StatusBadRequest, http.StatusOK, http.StatusBadRequest}
	if s.ChecksInputs {
		items = append(items, wfbench.BatchItem{Body: task("b-doomed", tag+"-never-staged")})
		want = append(want, http.StatusInternalServerError)
	}
	results := postBatch(t, h, batch, items)
	for i, res := range results {
		if res.Status != want[i] {
			t.Errorf("batch frame %d: status %d, want %d (%s)", i, res.Status, want[i], res.Payload)
		}
	}
	published("b1")
	published("b2")
	if !s.SawTrace(trace(2).TraceID) {
		t.Error("batch: the frame's Traceparent did not reach the executor")
	}
	if s.ChecksInputs {
		failed("batch function error", results[4].Payload)
	}
	for i, res := range postBatch(t, h, path(s.Unknown, "invoke-batch"), items[:1]) {
		if res.Status != s.UnknownStatus {
			t.Errorf("batch to the unknown route, frame %d: status %d, want %d", i, res.Status, s.UnknownStatus)
		}
	}
}
