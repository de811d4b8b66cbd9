package wfbench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"testing"

	"wfserverless/internal/recipes"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfgen"
)

// recipeBodies renders the single-task request body of every task of a
// small instance of each of the seven recipes — the bytes the wire
// really carries, and the seed corpus of the fuzz targets.
func recipeBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, recipe := range recipes.Names() {
		w, err := wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: 12, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		for _, name := range w.TaskNames() {
			task := w.Tasks[name]
			arg := task.Command.Arguments[0]
			body, err := json.Marshal(&Request{
				Name: arg.Name, PercentCPU: arg.PercentCPU, CPUWork: arg.CPUWork, Cores: task.Cores,
				MemBytes: arg.MemBytes, Out: arg.Out, Inputs: arg.Inputs, Workdir: arg.Workdir,
			})
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, body)
		}
	}
	return out
}

// FuzzCodecDifferential holds the hand codec to encoding/json: on any
// input UnmarshalRequest and UnmarshalResponse agree with json.Unmarshal
// on whether it decodes, on the error, and on the decoded value — and so
// do the decoders that share strings (DecodeResponse) and recycle
// containers (Batch.Decode into a slot another request has used); and
// AppendRequest, AppendResponse and MarshalResponse of any field values
// equal json.Marshal.
func FuzzCodecDifferential(f *testing.F) {
	slotSeed := recipeBodies(f)[3]
	for i, body := range recipeBodies(f) {
		f.Add(body, "t", "", "", 0.25, 0.5, int64(i), true, false)
		resp, err := json.Marshal(&Response{Name: "t", OK: i%2 == 0, BusySeconds: float64(i) / 7, WallSeconds: 1e-7 * float64(i), OutBytes: int64(i) << 20, ColdStart: i%3 == 0, Pod: "wfbench-0"})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(resp, "leaf_000042", "wfbench: t: missing inputs [a.txt]", "wfbench-5f", 6.1e-05, 1e21, int64(-7), false, true)
	}
	f.Add([]byte(`{"name":"x","out":{"a":1},"out":{"b":2},"cores":01,"percent-cpu":1.}`), "<&>", "é", "\x00", -0.0, 1e-7, int64(0), false, false)
	f.Add([]byte(`{"busyseconds":"","NAME":1}`), "", "", "", 0.0, 0.0, int64(0), false, false)
	f.Fuzz(func(t *testing.T, data []byte, name, errText, pod string, busy, wall float64, outBytes int64, ok, cold bool) {
		var gotReq, wantReq Request
		gotErr, wantErr := UnmarshalRequest(data, &gotReq), json.Unmarshal(data, &wantReq)
		if !sameError(gotErr, wantErr) {
			t.Fatalf("UnmarshalRequest(%q) error = %v, json.Unmarshal = %v", data, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(gotReq, wantReq) {
			t.Fatalf("UnmarshalRequest(%q) = %+v, json.Unmarshal = %+v", data, gotReq, wantReq)
		}
		var gotResp, wantResp Response
		gotErr, wantErr = UnmarshalResponse(data, &gotResp), json.Unmarshal(data, &wantResp)
		if !sameError(gotErr, wantErr) {
			t.Fatalf("UnmarshalResponse(%q) error = %v, json.Unmarshal = %v", data, gotErr, wantErr)
		}
		if wantErr == nil && gotResp != wantResp {
			t.Fatalf("UnmarshalResponse(%q) = %+v, json.Unmarshal = %+v", data, gotResp, wantResp)
		}
		var pods Strings
		for range 2 { // the second time the pod is one the table has seen
			var shared Response
			if err := DecodeResponse(data, &shared, name, &pods); !sameError(err, wantErr) || (err == nil && shared != wantResp) {
				t.Fatalf("DecodeResponse(%q, %q) = %+v, %v; json.Unmarshal = %+v, %v", data, name, shared, err, wantResp, wantErr)
			}
		}

		// The slab decode: data as the one frame of a batch whose slot a
		// recipe's request has been through.
		batch := new(Batch)
		for _, body := range [][]byte{slotSeed, data} {
			batch.body = append(batch.body[:0], EncodeBatchRequest([]BatchItem{{Body: body}})...)
			if err := batch.load(); err != nil {
				t.Fatal(err)
			}
			batch.Decode()
		}
		wantReq = Request{}
		valid := UnmarshalRequest(data, &wantReq) == nil && wantReq.Validate() == nil
		if batch.Pending(0) != valid || (valid && !reflect.DeepEqual(batch.Reqs[0], wantReq)) {
			t.Fatalf("Batch.Decode(%q) = %+v, valid %v; UnmarshalRequest = %+v, valid %v", data, batch.Reqs[0], batch.Pending(0), wantReq, valid)
		}

		// The request encoder: what decoded, and the fuzzed field values.
		for _, req := range []*Request{&wantReq, {Name: name, PercentCPU: busy, CPUWork: wall, Cores: int(outBytes), MemBytes: outBytes,
			Out: map[string]int64{errText: outBytes, pod: 1}, Inputs: []string{pod, errText}, Workdir: errText}} {
			got, gotErr := AppendRequest(nil, req)
			want, wantErr := json.Marshal(req)
			if !sameError(gotErr, wantErr) || !bytes.Equal(got, want) {
				t.Fatalf("AppendRequest(%+v) = %s, %v; json.Marshal = %s, %v", req, got, gotErr, want, wantErr)
			}
		}

		r := &Response{Name: name, OK: ok, Error: errText, BusySeconds: busy, WallSeconds: wall, OutBytes: outBytes, ColdStart: cold, Pod: pod}
		got, gotErr := MarshalResponse(r)
		want, wantErr := json.Marshal(r)
		if !sameError(gotErr, wantErr) || !bytes.Equal(got, want) {
			t.Fatalf("MarshalResponse(%+v) = %s, %v; json.Marshal = %s, %v", r, got, gotErr, want, wantErr)
		}
		got, gotErr = AppendResponse([]byte("kept"), r)
		if !sameError(gotErr, wantErr) || !bytes.Equal(got, append([]byte("kept"), want...)) {
			t.Fatalf("AppendResponse(kept, %+v) = %s, %v; json.Marshal = %s, %v", r, got, gotErr, want, wantErr)
		}
		// A frame that carries the Response is the frame that carries its JSON.
		framed, payload := BatchResult{Status: 200, RetryAfterMillis: outBytes & 0xffff, Response: r}, BatchResult{Status: 200, RetryAfterMillis: outBytes & 0xffff, Payload: want}
		if wantErr != nil {
			payload = BatchResult{Status: http.StatusInternalServerError, RetryAfterMillis: payload.RetryAfterMillis, Payload: []byte(wantErr.Error())}
		}
		if got, want := EncodeBatchResponse([]BatchResult{framed, framed}), EncodeBatchResponse([]BatchResult{payload, payload}); !bytes.Equal(got, want) {
			t.Fatalf("frames of %+v rendered in place:\n%q, from its JSON:\n%q", r, got, want)
		}
	})
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// FuzzBatchWire feeds arbitrary bytes to the batch decoders: none may
// panic, every frame handed back must lie inside the input, and whatever
// decodes re-encodes to a body that decodes to the same frames. A Batch
// splits a body into the same frames, and decodes each — twice, the
// second time into the slabs the first left — as UnmarshalRequest does.
// TestBatchDecodeBoundedByBody holds the allocation bound.
func FuzzBatchWire(f *testing.F) {
	var items []BatchItem
	var results []BatchResult
	for i, body := range recipeBodies(f) {
		items = append(items, BatchItem{Traceparent: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", Body: body})
		results = append(results, BatchResult{Status: 200 + i%2*229, RetryAfterMillis: int64(i), Payload: body})
		if len(items) == 8 {
			f.Add(EncodeBatchRequest(items))
			f.Add(EncodeBatchResponse(results))
			items, results = nil, nil
		}
	}
	f.Add([]byte{0xff, 0xff, 0x3f}) // a million tasks declared by three bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeBatchRequestBytes(data)
		b, berr := NewBatch(bytes.Clone(data))
		if !sameError(err, berr) || (err == nil && !reflect.DeepEqual(b.Items, items)) {
			t.Fatalf("NewBatch splits %q into %+v (%v), DecodeBatchRequestBytes into %+v (%v)", data, b.Items, berr, items, err)
		}
		// (A body of thousands of two-byte frames says nothing a few hundred
		// do not, and decoding each three times would set the fuzzer's pace.)
		for pass := 0; err == nil && len(items) <= 256 && pass < 2; pass++ {
			if pass > 0 {
				if err := b.load(); err != nil {
					t.Fatal(err)
				}
			}
			b.Decode()
			for i, it := range items {
				var want Request
				valid := UnmarshalRequest(it.Body, &want) == nil && want.Validate() == nil
				if b.Pending(i) != valid || (valid && !reflect.DeepEqual(b.Reqs[i], want)) {
					t.Fatalf("pass %d frame %d (%q) = %+v, pending %v; alone %+v, valid %v", pass, i, it.Body, b.Reqs[i], b.Pending(i), want, valid)
				}
			}
		}
		if err == nil {
			total := 0
			for _, it := range items {
				total += len(it.Traceparent) + len(it.Body)
			}
			if len(items)*2+total > len(data) {
				t.Fatalf("decoded %d items / %d bytes out of a %d-byte body", len(items), total, len(data))
			}
			again, err := DecodeBatchRequestBytes(EncodeBatchRequest(items))
			if err != nil || !reflect.DeepEqual(again, items) {
				t.Fatalf("request round trip: %v\n got %+v\nwant %+v", err, again, items)
			}
		}
		if all, err := DecodeBatchResponse(bytes.NewReader(data)); err == nil && 3*len(all) > len(data) {
			t.Fatalf("decoded %d frames out of a %d-byte body", len(all), len(data))
		}
		r, err := NewBatchResponseReaderBytes(data)
		if err != nil {
			return
		}
		var frames []BatchResult
		for i := 0; i < r.Len(); i++ {
			res, err := r.Next()
			if err != nil {
				return
			}
			frames = append(frames, res)
		}
		again, err := DecodeBatchResponse(bytes.NewReader(EncodeBatchResponse(frames)))
		if err != nil || len(again) != len(frames) {
			t.Fatalf("response round trip: %v, %d of %d frames", err, len(again), len(frames))
		}
		for i := range frames {
			if again[i].Status != frames[i].Status || again[i].RetryAfterMillis != frames[i].RetryAfterMillis ||
				!bytes.Equal(again[i].Payload, frames[i].Payload) {
				t.Fatalf("response round trip frame %d: got %+v, want %+v", i, again[i], frames[i])
			}
		}
	})
}

// FuzzEndpoint sends an arbitrary method, path, Traceparent, declared
// length and body into the shared handler over the stub executor. It
// must not panic; it answers 200 — a request, or a batch frame — only on
// a POST to a route SplitPath accepts and only to a body UnmarshalRequest
// and Validate accept; and what it allocates follows the bytes it
// received, not the Content-Length it was promised.
func FuzzEndpoint(f *testing.F) {
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	bodies := recipeBodies(f)[:6]
	var items []BatchItem
	for _, body := range bodies {
		f.Add(http.MethodPost, "/svc/wfbench", tp, int64(len(body)), body)
		items = append(items, BatchItem{Traceparent: tp, Body: body})
	}
	items[1].Body = []byte("{nope")
	f.Add(http.MethodPost, "/invoke-batch/", "", int64(-1), EncodeBatchRequest(items))
	f.Add(http.MethodPost, "/wfbench", "zz", int64(1)<<40, []byte(`{"`))
	f.Add(http.MethodPost, "/a/invoke-batch", "", int64(1)<<40, []byte{0xff, 0xff, 0x3f})
	f.Add(http.MethodGet, "/healthz", "", int64(0), []byte(nil))
	f.Add(http.MethodGet, "/wfbench", "", int64(0), []byte(nil))
	f.Add("", "//wfbench", "", int64(0), []byte(`{"name":"x","percent-cpu":3}`))
	h := NewEndpoint(NewStub(sharedfs.NewMem(), 0))
	valid := func(body []byte) bool {
		var req Request
		return UnmarshalRequest(body, &req) == nil && req.Validate() == nil
	}
	f.Fuzz(func(t *testing.T, method, path, traceparent string, declared int64, body []byte) {
		r := &http.Request{Method: method, URL: &url.URL{Path: path}, Header: http.Header{"Traceparent": {traceparent}},
			Body: io.NopCloser(bytes.NewReader(body)), ContentLength: declared}
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		lying := declared > int64(len(body))+1<<20
		if lying {
			runtime.ReadMemStats(&before)
		}
		h.ServeHTTP(rec, r)
		if lying {
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10+16*uint64(len(body)) {
				t.Fatalf("a %d-byte body declared as %d allocated %d bytes", len(body), declared, got)
			}
		}
		if rec.Code != http.StatusOK || path == "/healthz" {
			return
		}
		_, batch, ok := SplitPath(path)
		if !ok || method != http.MethodPost {
			t.Fatalf("%q %q answered 200", method, path)
		}
		if !batch {
			if !valid(body) {
				t.Fatalf("200 to a body that does not decode and validate: %q", body)
			}
			return
		}
		items, err := DecodeBatchRequestBytes(body)
		results, rerr := DecodeBatchResponse(rec.Body)
		if err != nil || rerr != nil || len(results) != len(items) {
			t.Fatalf("batch 200: %d frames in (%v), %d out (%v)", len(items), err, len(results), rerr)
		}
		for i, res := range results {
			if (res.Status == http.StatusOK) != valid(items[i].Body) {
				t.Fatalf("frame %d: status %d to body %q", i, res.Status, items[i].Body)
			}
		}
	})
}
