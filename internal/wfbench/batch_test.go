package wfbench

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
)

func marshalReq(t *testing.T, r *Request) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBatchRequestRoundTrip(t *testing.T) {
	items := []BatchItem{
		{Traceparent: "", Body: []byte(`{"name":"a"}`)},
		{Traceparent: "00-trace-span-01", Body: []byte{}},
		{Traceparent: "", Body: []byte(`{"name":"c","inputs":["x"]}`)},
	}
	got, err := DecodeBatchRequestBytes(EncodeBatchRequest(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].Traceparent != items[i].Traceparent || string(got[i].Body) != string(items[i].Body) {
			t.Fatalf("item %d = %+v, want %+v", i, got[i], items[i])
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	results := []BatchResult{
		{Status: 200, Payload: []byte(`{"ok":true}`)},
		{Status: 429, RetryAfterMillis: 1500, Payload: []byte("overloaded")},
		{Status: 500, Payload: []byte("boom")},
	}
	got, err := DecodeBatchResponse(bytes.NewReader(EncodeBatchResponse(results)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if got[i].Status != results[i].Status ||
			got[i].RetryAfterMillis != results[i].RetryAfterMillis ||
			string(got[i].Payload) != string(results[i].Payload) {
			t.Fatalf("frame %d = %+v, want %+v", i, got[i], results[i])
		}
	}
}

// TestBatchResponseReaderSalvagesPrefix pins the streaming contract: a
// framing error is terminal, but every frame before it is recovered —
// the client fails only the tasks it cannot locate frames for.
func TestBatchResponseReaderSalvagesPrefix(t *testing.T) {
	raw := AppendBatchCount(nil, 3)
	raw = binary.AppendUvarint(raw, 200)
	raw = binary.AppendUvarint(raw, 0)
	raw = binary.AppendUvarint(raw, 2)
	raw = append(raw, "ok"...)
	raw = binary.AppendUvarint(raw, 999) // status out of range: framing error
	br, err := NewBatchResponseReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if br.Len() != 3 {
		t.Fatalf("Len = %d, want 3", br.Len())
	}
	first, err := br.Next()
	if err != nil || first.Status != 200 || string(first.Payload) != "ok" {
		t.Fatalf("first frame = %+v, %v", first, err)
	}
	if _, err := br.Next(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("corrupt frame error = %v", err)
	}
}

// TestBatchDecodeBoundedByBody: a body whose first three bytes declare a
// million tasks must not make either strict decoder allocate for them.
func TestBatchDecodeBoundedByBody(t *testing.T) {
	hostile := binary.AppendUvarint(nil, maxBatchTasks-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, reqErr := DecodeBatchRequestBytes(hostile)
	_, respErr := DecodeBatchResponse(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if reqErr == nil || respErr == nil {
		t.Fatalf("hostile count accepted: %v, %v", reqErr, respErr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("decoding a %d-byte body allocated %d bytes", len(hostile), got)
	}
}

// TestBodyReadsIgnoreDeclaredLength: a request that declares a 1 GiB body
// and sends two bytes must cost what two bytes cost, on the batch
// endpoint and on every single-task /wfbench handler.
func TestBodyReadsIgnoreDeclaredLength(t *testing.T) {
	hostile := func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/wfbench", strings.NewReader(`{"`))
		r.ContentLength = 1 << 30
		return r
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req Request
	reqErr := readRequest(hostile(), &req)
	body, batchErr := ReadBatchBody(hostile())
	runtime.ReadMemStats(&after)
	if reqErr == nil {
		t.Error("readRequest accepted a truncated body")
	}
	if batchErr != nil || string(body) != `{"` {
		t.Errorf("ReadBatchBody = %q, %v; want the bytes sent", body, batchErr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("reading two 2-byte bodies allocated %d bytes", got)
	}
}

func TestDecodeBatchRequestRejectsOversize(t *testing.T) {
	over := binary.AppendUvarint(nil, maxBatchTasks+1)
	if _, err := DecodeBatchRequestBytes(over); err == nil {
		t.Fatal("oversize task count accepted")
	}
	// Traceparent frames are capped at 256 bytes.
	raw := AppendBatchCount(nil, 1)
	raw = binary.AppendUvarint(raw, 300)
	raw = append(raw, make([]byte, 300)...)
	raw = binary.AppendUvarint(raw, 0)
	if _, err := DecodeBatchRequestBytes(raw); err == nil {
		t.Fatal("oversize traceparent accepted")
	}
	// A truncated body must error, not hang or short-read.
	raw = AppendBatchCount(nil, 1)
	raw = binary.AppendUvarint(raw, 0)
	raw = binary.AppendUvarint(raw, 10)
	raw = append(raw, "short"...)
	if _, err := DecodeBatchRequestBytes(raw); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestPrepareInputsHashesPresentFiles(t *testing.T) {
	drive := sharedfs.NewMem()
	drive.WriteFile("a", 10)
	drive.WriteFile("b", 20)
	prep := PrepareInputs(context.Background(), drive, []string{"a", "b", "a", "missing"}, 50*time.Millisecond)
	if !prep.Verified("a") || !prep.Verified("b") {
		t.Fatal("staged files not verified")
	}
	if prep.Verified("missing") {
		t.Fatal("absent file verified")
	}
	ha, ok := prep.Hash("a")
	if !ok {
		t.Fatal("no content hash for staged file on a hashing drive")
	}
	if hb, ok := prep.Hash("b"); !ok || hb == ha {
		t.Fatalf("hashes not distinct: a=%d b=%d ok=%v", ha, hb, ok)
	}
	if missing := prep.missingOf([]string{"a", "missing"}); len(missing) != 1 || missing[0] != "missing" {
		t.Fatalf("missingOf = %v", missing)
	}
}

// TestServiceServeBatch drives the standalone service's /invoke-batch
// surface end to end: valid sub-tasks execute through the worker pool,
// an unparseable frame answers 400 without poisoning the others, and a
// sub-task with a missing input answers 500 with the usual Response
// JSON — frame for frame what single-task POSTs would have said.
func TestServiceServeBatch(t *testing.T) {
	drive := sharedfs.NewMem()
	drive.WriteFile("staged.in", 8)
	b := testBench(t, Config{Drive: drive, InputWait: 50 * time.Millisecond})
	svc, err := NewService(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()

	withInput := req("needs_input")
	withInput.Inputs = []string{"staged.in"}
	doomed := req("doomed")
	doomed.Inputs = []string{"never_staged.in"}
	items := []BatchItem{
		{Body: marshalReq(t, req("plain"))},
		{Body: []byte("{broken")},
		{Body: marshalReq(t, withInput)},
		{Body: marshalReq(t, doomed)},
	}
	resp, err := http.Post(srv.URL+"/invoke-batch", BatchContentType,
		bytes.NewReader(EncodeBatchRequest(items)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch POST status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BatchContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	results, err := DecodeBatchResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d frames, want 4", len(results))
	}
	wantStatus := []int{200, 400, 200, 500}
	for i, want := range wantStatus {
		if results[i].Status != want {
			t.Fatalf("frame %d status = %d, want %d (payload %q)", i, results[i].Status, want, results[i].Payload)
		}
	}
	for _, i := range []int{0, 2} {
		var r Response
		if err := json.Unmarshal(results[i].Payload, &r); err != nil || !r.OK {
			t.Fatalf("frame %d payload = %q (err %v)", i, results[i].Payload, err)
		}
	}
	var failed Response
	if err := json.Unmarshal(results[3].Payload, &failed); err != nil {
		t.Fatal(err)
	}
	if failed.OK || !strings.Contains(failed.Error, "never_staged.in") {
		t.Fatalf("doomed frame response = %+v", failed)
	}
	// The valid sub-tasks' outputs landed on the drive.
	if _, err := drive.Stat("plain_out"); err != nil {
		t.Fatalf("plain_out not published: %v", err)
	}
	if _, err := drive.Stat("needs_input_out"); err != nil {
		t.Fatalf("needs_input_out not published: %v", err)
	}
}

// injectorEndpoint serves a stub behind an injector with profile p.
func injectorEndpoint(t *testing.T, p FaultProfile) (*Injector, http.Handler) {
	t.Helper()
	inj, err := NewInjector(NewStub(sharedfs.NewMem(), 0), p)
	if err != nil {
		t.Fatal(err)
	}
	return inj, NewEndpoint(inj)
}

func postBatch(t *testing.T, h http.Handler, items []BatchItem) []BatchResult {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/invoke-batch",
		bytes.NewReader(EncodeBatchRequest(items)))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch POST status = %d: %s", rec.Code, rec.Body.String())
	}
	results, err := DecodeBatchResponse(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("%d frames, want %d", len(results), len(items))
	}
	return results
}

func batchItems(t *testing.T, n int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Body: marshalReq(t, req("t"+frameTag(i)))}
	}
	return items
}

func frameTag(i int) string { return string(rune('a' + i)) }

// TestInjectorBatchZeroProfileForwards pins the clean path: no faults
// means every frame reaches the wrapped executor and frames come back in
// request order.
func TestInjectorBatchZeroProfileForwards(t *testing.T) {
	inj, h := injectorEndpoint(t, FaultProfile{})
	results := postBatch(t, h, batchItems(t, 4))
	for i, res := range results {
		var r Response
		if res.Status != 200 {
			t.Fatalf("frame %d status = %d", i, res.Status)
		}
		if err := json.Unmarshal(res.Payload, &r); err != nil || r.Name != "t"+frameTag(i) {
			t.Fatalf("frame %d out of order: %+v (%v)", i, r, err)
		}
	}
	if s := inj.Stats(); s.Passed != 4 {
		t.Fatalf("stats = %+v, want 4 passes", s)
	}
}

// TestInjectorBatchRejectsPerFrame pins that a certain-reject profile
// answers every frame 429 with the Retry-After hint in milliseconds —
// the hint the manager's retry schedule honors per sub-task.
func TestInjectorBatchRejectsPerFrame(t *testing.T) {
	inj, h := injectorEndpoint(t, FaultProfile{RejectRate: 1, RetryAfter: 0.25})
	results := postBatch(t, h, batchItems(t, 3))
	for i, res := range results {
		if res.Status != http.StatusTooManyRequests || res.RetryAfterMillis != 250 {
			t.Fatalf("frame %d = %+v, want 429 with 250ms hint", i, res)
		}
	}
	if s := inj.Stats(); s.Rejects != 3 || s.Passed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestInjectorBatchFaultsSubset pins per-frame independence: with a
// half error rate over many frames, some frames fail and some execute,
// inside the same batch POST — each frame is its own Invoke.
func TestInjectorBatchFaultsSubset(t *testing.T) {
	inj, h := injectorEndpoint(t, FaultProfile{ErrorRate: 0.5, Seed: 7})
	items := make([]BatchItem, 24)
	for i := range items {
		items[i] = BatchItem{Body: marshalReq(t, req("x"))}
	}
	results := postBatch(t, h, items)
	var ok, failed int
	for _, res := range results {
		switch res.Status {
		case http.StatusOK:
			ok++
		case http.StatusInternalServerError:
			failed++
		default:
			t.Fatalf("unexpected frame status %d", res.Status)
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("ok=%d failed=%d: faults not per-frame", ok, failed)
	}
	s := inj.Stats()
	if int(s.Errors) != failed || int(s.Passed) != ok {
		t.Fatalf("stats %+v disagree with frames ok=%d failed=%d", s, ok, failed)
	}
}

// TestInjectorBatchUpstreamRejectInheritedByAll pins the refused path:
// when the wrapped executor refuses every invocation, every forwarded
// frame carries its status and Retry-After hint, exactly as single-task
// POSTs to a drowning endpoint would.
func TestInjectorBatchUpstreamRejectInheritedByAll(t *testing.T) {
	upstream := execFunc(func(context.Context, string, *Request) (*Response, error) {
		return nil, &StatusError{Status: http.StatusServiceUnavailable, RetryAfter: 2 * time.Second, Err: errors.New("drowning")}
	})
	inj, err := NewInjector(upstream, FaultProfile{})
	if err != nil {
		t.Fatal(err)
	}
	results := postBatch(t, NewEndpoint(inj), batchItems(t, 3))
	for i, res := range results {
		if res.Status != http.StatusServiceUnavailable || res.RetryAfterMillis != 2000 {
			t.Fatalf("frame %d = %+v, want 503 with 2000ms hint", i, res)
		}
	}
}

// decodedAlone is frame i of b as UnmarshalRequest and Validate take it
// on their own: what Decode must have put in b.Reqs[i], or refused.
func decodedAlone(b *Batch, i int) (want Request, valid bool) {
	valid = UnmarshalRequest(b.Items[i].Body, &want) == nil && want.Validate() == nil
	return want, valid
}

// checkDecoded holds every frame of a decoded b to decodedAlone.
func checkDecoded(t *testing.T, b *Batch, when string) {
	t.Helper()
	for i := range b.Items {
		want, valid := decodedAlone(b, i)
		if b.Pending(i) != valid {
			t.Fatalf("%s: frame %d (%q) pending = %v, want %v", when, i, b.Items[i].Body, b.Pending(i), valid)
		}
		if valid && !reflect.DeepEqual(b.Reqs[i], want) {
			t.Fatalf("%s: frame %d decoded into a recycled slot = %+v, alone = %+v", when, i, b.Reqs[i], want)
		}
	}
}

// TestDecodeFramesSurvivesRecycle decodes batch A, lets its executor
// publish A's outputs, recycles the Batch — body buffer, Requests with
// their maps and slices — for batch B, and then scribbles over the body:
// everything B's executor sees is B's, what A left on the drive and in a
// string it kept is A's still, and none of it moves with the body bytes.
func TestDecodeFramesSurvivesRecycle(t *testing.T) {
	a := []BatchItem{
		{Body: marshalReq(t, &Request{Name: "a-root", PercentCPU: 0.5, Out: map[string]int64{"a_out1": 11, "a_out2": 12}, Inputs: []string{}, Workdir: "/a"})},
		{Traceparent: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
			Body: marshalReq(t, &Request{Name: "a-leaf", PercentCPU: 1, Out: map[string]int64{"a_out3": 13}, Inputs: []string{"a_out1", "a_out2", "a_ext"}})},
		{Body: marshalReq(t, &Request{Name: "a-last", Out: map[string]int64{"a_out4": 14}, Inputs: []string{"a_out3"}})},
	}
	b := []BatchItem{
		{Body: marshalReq(t, &Request{Name: "b-one", Out: map[string]int64{"b_out1": 21}, Inputs: []string{"b_in"}})},
		{Body: []byte(`{"name":"b-bad","percent-cpu":7,"out":{"b_never":1},"inputs":["x"]}`)},                                // decodes, does not validate
		{Body: []byte(`{"name":"b-esc\u0061ped","out":{"b_out2":22},"inputs":null}`)},                                        // the reflection path
		{Body: []byte(`{"name":"b-none","out":null,"inputs":[]}`)},                                                           // no map to reuse
		{Body: marshalReq(t, &Request{Name: "b-more", Out: map[string]int64{"b_out3": 23}, Inputs: []string{"b_1", "b_2"}})}, // a slot A never had
	}
	drive := sharedfs.NewMem()
	batch := new(Batch)
	load := func(items []BatchItem) {
		t.Helper()
		batch.body = append(batch.body[:0], EncodeBatchRequest(items)...)
		if err := batch.load(); err != nil {
			t.Fatal(err)
		}
		batch.Decode()
	}
	poison := func() {
		for i := range batch.body {
			batch.body[i] = 'X'
		}
	}

	load(a)
	checkDecoded(t, batch, "batch A")
	kept := batch.Reqs[1].Name // what a span or a log line of A's may hold on to
	for i := range batch.Reqs {
		for out, size := range batch.Reqs[i].Out {
			drive.WriteFile(out, size)
		}
	}

	load(b)
	checkDecoded(t, batch, "batch B in A's slabs")
	want, valid := make([]Request, len(b)), make([]bool, len(b))
	for i := range b {
		want[i], valid[i] = decodedAlone(batch, i)
	}
	poison()
	for i := range b {
		if valid[i] && !reflect.DeepEqual(batch.Reqs[i], want[i]) {
			t.Fatalf("frame %d changed with the body bytes: %+v, want %+v", i, batch.Reqs[i], want[i])
		}
	}
	if kept != strings.Clone("a-leaf") {
		t.Fatalf("a string of batch A now reads %q", kept)
	}
	names := drive.List()
	slices.Sort(names)
	if !slices.Equal(names, []string{"a_out1", "a_out2", "a_out3", "a_out4"}) {
		t.Fatalf("drive holds %q: a key aliased a request body", names)
	}
}
