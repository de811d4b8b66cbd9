package wfm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// batchServer is a WfBench stub speaking both the single-task and the
// framed batch surface, instrumented to count how each invocation
// arrived and to let tests rewrite individual sub-response frames.
type batchServer struct {
	drive sharedfs.Drive
	srv   *httptest.Server

	mu          sync.Mutex
	batchPosts  int
	singlePosts int
	batchSizes  []int
	attempts    map[string]int
	// frameHook, when set, may replace one sub-task's response frame
	// (return ok=true). attempt is 1-based per task name.
	frameHook func(req *wfbench.Request, attempt int) (wfbench.BatchResult, bool)
}

func newBatchServer(t testing.TB, drive sharedfs.Drive) *batchServer {
	t.Helper()
	bs := &batchServer{drive: drive, attempts: make(map[string]int)}
	bs.srv = httptest.NewServer(http.HandlerFunc(bs.serve))
	t.Cleanup(bs.srv.Close)
	return bs
}

func (bs *batchServer) url() string { return bs.srv.URL + "/wfbench" }

func (bs *batchServer) execute(req *wfbench.Request) wfbench.BatchResult {
	bs.mu.Lock()
	bs.attempts[req.Name]++
	attempt := bs.attempts[req.Name]
	hook := bs.frameHook
	bs.mu.Unlock()
	if hook != nil {
		if res, ok := hook(req, attempt); ok {
			return res
		}
	}
	for name, size := range req.Out {
		bs.drive.WriteFile(name, size)
	}
	payload, _ := json.Marshal(&wfbench.Response{Name: req.Name, OK: true})
	return wfbench.BatchResult{Status: http.StatusOK, Payload: payload}
}

func (bs *batchServer) serve(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/invoke-batch") {
		body, err := wfbench.ReadBatchBody(r)
		var items []wfbench.BatchItem
		if err == nil {
			items, err = wfbench.DecodeBatchRequestBytes(body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		bs.mu.Lock()
		bs.batchPosts++
		bs.batchSizes = append(bs.batchSizes, len(items))
		bs.mu.Unlock()
		results := make([]wfbench.BatchResult, len(items))
		for i, it := range items {
			var req wfbench.Request
			if err := json.Unmarshal(it.Body, &req); err != nil {
				results[i] = wfbench.BatchResult{Status: http.StatusBadRequest, Payload: []byte(err.Error())}
				continue
			}
			results[i] = bs.execute(&req)
		}
		wfbench.WriteBatchResponse(w, results)
		return
	}
	bs.mu.Lock()
	bs.singlePosts++
	bs.mu.Unlock()
	var req wfbench.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res := bs.execute(&req)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.Status)
	w.Write(res.Payload)
}

func (bs *batchServer) counts() (batch, single int, sizes []int) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.batchPosts, bs.singlePosts, append([]int(nil), bs.batchSizes...)
}

// flatWorkflow is one phase of n independent tasks — the pure fan-out
// shape batching coalesces hardest.
func flatWorkflow(t testing.TB, n int, url string) *wfformat.Workflow {
	w := wfformat.New(fmt.Sprintf("flat-%d", n))
	for i := 0; i < n; i++ {
		synthAdd(t, w, synthTask(fmt.Sprintf("t%03d", i), url, nil))
	}
	return w
}

// TestBatchFramesRoundTrip pins the zero-copy framing: the segments
// batchFrames renders (headers in a fresh arena, payloads aliasing the
// plan's body arena) stream back into exactly the frames
// DecodeBatchRequest recovers — including a task with no inputs and no
// traceparent, and a single-task batch — whatever the size of the buffer
// Read is handed: a byte, less than a frame header, net/http's 64 KB.
func TestBatchFramesRoundTrip(t *testing.T) {
	tasks := []*wfformat.Task{
		synthTask("alpha", "http://endpoint/wfbench", nil), // no inputs: minimal argument block
		synthTask("beta", "http://endpoint/wfbench", []string{"out_alpha"}),
		synthTask("gamma", "http://endpoint/wfbench", []string{"out_alpha", "out_beta"}),
	}
	p, err := newInvocationPlan(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ids  []int32
		tps  []string
	}{
		{"single-task batch", []int32{1}, []string{""}},
		{"full batch with traceparents", []int32{0, 1, 2}, []string{"", "00-abc-def-01", ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f batchFrames
			f.frame(p, tc.ids, tc.tps)
			raw, err := io.ReadAll(&segmentReader{f: &f})
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) != f.total {
				t.Fatalf("segment total = %d, stream is %d bytes", f.total, len(raw))
			}
			want := make([]wfbench.BatchItem, len(tc.ids))
			for i, id := range tc.ids {
				want[i] = wfbench.BatchItem{Traceparent: tc.tps[i], Body: p.body(id)}
			}
			for _, size := range []int{1, 7, 64 << 10} {
				var got []byte
				r, buf := &segmentReader{f: &f}, make([]byte, size)
				for {
					n, err := r.Read(buf)
					got = append(got, buf[:n]...)
					if err == io.EOF {
						break
					}
					if err != nil || n == 0 {
						t.Fatalf("Read into %d bytes = %d, %v", size, n, err)
					}
					if n < size && len(got) < len(raw) {
						t.Fatalf("Read into %d bytes stopped at %d with %d to go", size, n, len(raw)-len(got))
					}
				}
				if !bytes.Equal(got, wfbench.EncodeBatchRequest(want)) {
					t.Fatalf("%d-byte reads yield\n%q, want\n%q", size, got, wfbench.EncodeBatchRequest(want))
				}
			}
			items, err := wfbench.DecodeBatchRequestBytes(raw)
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != len(tc.ids) {
				t.Fatalf("decoded %d frames, want %d", len(items), len(tc.ids))
			}
			for i, id := range tc.ids {
				if items[i].Traceparent != tc.tps[i] {
					t.Fatalf("frame %d traceparent = %q, want %q", i, items[i].Traceparent, tc.tps[i])
				}
				if string(items[i].Body) != string(p.body(id)) {
					t.Fatalf("frame %d body diverges from arena slice", i)
				}
			}
			// The payload segments must alias the arena, not copy it.
			for i, id := range tc.ids {
				seg := f.segment(2*i + 1)
				body := p.body(id)
				if len(seg) > 0 && len(body) > 0 && &seg[0] != &body[0] {
					t.Fatalf("frame %d payload segment copied out of the arena", i)
				}
			}
		})
	}
}

// TestBatcherByteBoundSplit pins MaxBytes sealing: submissions that
// would push a pending batch past the byte bound seal it as-is and
// start a fresh one, so no batch on the wire exceeds the bound.
func TestBatcherByteBoundSplit(t *testing.T) {
	drive := sharedfs.NewMem()
	bs := newBatchServer(t, drive)
	tasks := make([]*wfformat.Task, 4)
	for i := range tasks {
		tasks[i] = synthTask(fmt.Sprintf("t%d", i), bs.url(), nil)
	}
	p, err := newInvocationPlan(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	bodyLen := len(p.body(0))
	m, err := New(Options{
		Drive: drive,
		Batching: BatchOptions{
			Enabled:  true,
			MaxTasks: 100,
			MaxBytes: 2 * bodyLen, // third member would overflow
			Linger:   0.02,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := m.newResilience(context.Background(), p, time.Now(), &runState{})
	defer rs.close()
	var wg sync.WaitGroup
	errs := make([]error, len(tasks))
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := rs.post(context.Background(), attempt{p: p, id: int32(i)})
			err := out.err
			if err == nil && !out.resp.OK {
				err = fmt.Errorf("response not OK")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	_, single, sizes := bs.counts()
	if single != 0 {
		t.Fatalf("%d single-task POSTs leaked past the batcher", single)
	}
	total := 0
	for _, n := range sizes {
		if n > 2 {
			t.Fatalf("batch of %d tasks exceeds the 2-task byte bound (sizes %v)", n, sizes)
		}
		total += n
	}
	if total != len(tasks) {
		t.Fatalf("batches carried %d tasks, want %d (sizes %v)", total, len(tasks), sizes)
	}
}

// TestBatchedRunEquivalence runs the same fan-out in both scheduling
// modes with batching on: every task completes, every invocation rides
// the batch surface, and coalescing actually happens (fewer POSTs than
// tasks).
func TestBatchedRunEquivalence(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		drive := sharedfs.NewMem()
		bs := newBatchServer(t, drive)
		m, err := New(Options{
			Drive:       drive,
			TimeScale:   0.002,
			PhaseDelay:  1,
			InputWait:   5,
			MaxParallel: 64,
			Scheduling:  mode,
			Batching:    BatchOptions{Enabled: true, MaxTasks: 8, Linger: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(context.Background(), fanoutWorkflow(t, 32, bs.url()))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failed) != 0 {
			t.Fatalf("failed tasks: %v", res.Failed)
		}
		batch, single, sizes := bs.counts()
		if single != 0 {
			t.Fatalf("%d invocations bypassed the batch surface", single)
		}
		if batch >= 34 {
			t.Fatalf("%d batch POSTs for 34 tasks: no coalescing (sizes %v)", batch, sizes)
		}
	})
}

// TestBatchingDisabledUsesSingleSurface pins the acceptance criterion
// that the zero value changes nothing on the wire: without
// Options.Batching the manager never touches /invoke-batch.
func TestBatchingDisabledUsesSingleSurface(t *testing.T) {
	drive := sharedfs.NewMem()
	bs := newBatchServer(t, drive)
	m, err := New(Options{Drive: drive, TimeScale: 0.002, InputWait: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), flatWorkflow(t, 8, bs.url())); err != nil {
		t.Fatal(err)
	}
	batch, single, _ := bs.counts()
	if batch != 0 {
		t.Fatalf("batching disabled but %d batch POSTs were made", batch)
	}
	if single != 8 {
		t.Fatalf("%d single POSTs, want 8", single)
	}
}

// TestBatchMalformedFrameIsolated pins per-frame fault isolation: one
// sub-response whose payload is garbage fails only its own task
// (non-retriable decode error), while its batch-mates complete.
func TestBatchMalformedFrameIsolated(t *testing.T) {
	drive := sharedfs.NewMem()
	bs := newBatchServer(t, drive)
	bs.frameHook = func(req *wfbench.Request, attempt int) (wfbench.BatchResult, bool) {
		if req.Name == "t003" {
			return wfbench.BatchResult{Status: http.StatusOK, Payload: []byte("{not json")}, true
		}
		return wfbench.BatchResult{}, false
	}
	m, err := New(Options{
		Drive:       drive,
		TimeScale:   0.002,
		InputWait:   5,
		MaxParallel: 16,
		Retries:     2, // decode garbage must NOT be retried
		Batching:    BatchOptions{Enabled: true, MaxTasks: 8, Linger: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), flatWorkflow(t, 8, bs.url()))
	if err == nil {
		t.Fatal("run with a poisoned frame reported success")
	}
	if len(res.Failed) != 1 || res.Failed[0] != "t003" {
		t.Fatalf("failed = %v, want exactly [t003]", res.Failed)
	}
	tr := res.Tasks["t003"]
	if tr.Err == nil || !strings.Contains(tr.Err.Error(), "decode") {
		t.Fatalf("t003 error = %v, want a decode error", tr.Err)
	}
	if tr.Attempts != 1 {
		t.Fatalf("t003 attempts = %d; a malformed payload is not retriable", tr.Attempts)
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("t%03d", i)
		if name == "t003" {
			continue
		}
		if got := res.Tasks[name]; got.Err != nil {
			t.Fatalf("batch-mate %s poisoned: %v", name, got.Err)
		}
	}
}

// TestBatchSubTaskRetryIsolated pins retry isolation: a 500 frame
// inside a batch retries only that sub-task (in a later batch), its
// batch-mates are invoked exactly once.
func TestBatchSubTaskRetryIsolated(t *testing.T) {
	drive := sharedfs.NewMem()
	bs := newBatchServer(t, drive)
	bs.frameHook = func(req *wfbench.Request, attempt int) (wfbench.BatchResult, bool) {
		if req.Name == "t005" && attempt == 1 {
			return wfbench.BatchResult{Status: http.StatusInternalServerError, Payload: []byte("flaky")}, true
		}
		return wfbench.BatchResult{}, false
	}
	m, err := New(Options{
		Drive:       drive,
		TimeScale:   0.002,
		InputWait:   5,
		MaxParallel: 16,
		Retries:     3,
		Batching:    BatchOptions{Enabled: true, MaxTasks: 8, Linger: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), flatWorkflow(t, 8, bs.url()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed: %v", res.Failed)
	}
	if got := res.Tasks["t005"].Attempts; got != 2 {
		t.Fatalf("t005 attempts = %d, want 2", got)
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("t%03d", i)
		want := 1
		if name == "t005" {
			want = 2
		}
		if bs.attempts[name] != want {
			t.Fatalf("%s executed %d times, want %d", name, bs.attempts[name], want)
		}
	}
}

// TestBatch429FrameCarriesRetryAfter pins that a rejected frame's
// Retry-After hint survives the batch framing into the retry schedule's
// input, exactly like the header on a single-task 429.
func TestBatch429FrameCarriesRetryAfter(t *testing.T) {
	drive := sharedfs.NewMem()
	bs := newBatchServer(t, drive)
	bs.frameHook = func(req *wfbench.Request, attempt int) (wfbench.BatchResult, bool) {
		if attempt == 1 {
			return wfbench.BatchResult{
				Status:           http.StatusTooManyRequests,
				RetryAfterMillis: 1,
				Payload:          []byte("overloaded"),
			}, true
		}
		return wfbench.BatchResult{}, false
	}
	m, err := New(Options{
		Drive:     drive,
		TimeScale: 0.002,
		InputWait: 5,
		Retries:   2,
		Batching:  BatchOptions{Enabled: true, MaxTasks: 4, Linger: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), flatWorkflow(t, 4, bs.url()))
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range res.Tasks {
		if name == HeaderName || name == TailName {
			continue
		}
		if tr.Attempts != 2 {
			t.Fatalf("%s attempts = %d, want 2 (429 then success)", name, tr.Attempts)
		}
	}
}

// TestBatchURL pins the endpoint derivation for every translated URL
// shape: the Knative ingress path, the local-container base, and a bare
// host (the scale stub).
func TestBatchURL(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"http://ingress:8080/wfbench/wfbench", "http://ingress:8080/wfbench/invoke-batch"},
		{"http://127.0.0.1:9090/wfbench", "http://127.0.0.1:9090/invoke-batch"},
		{"http://127.0.0.1:9090", "http://127.0.0.1:9090/invoke-batch"},
		{"http://127.0.0.1:9090/", "http://127.0.0.1:9090/invoke-batch"},
	} {
		p, err := newInvocationPlan([]*wfformat.Task{synthTask("x", tc.in, nil)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := batchURL(p.urls[0]).String(); got != tc.want {
			t.Errorf("batchURL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestBatchOptionsValidate covers the option guards.
func TestBatchOptionsValidate(t *testing.T) {
	drive := sharedfs.NewMem()
	if _, err := New(Options{Drive: drive, Batching: BatchOptions{Enabled: true, MaxTasks: -1}}); err == nil {
		t.Fatal("negative MaxTasks accepted")
	}
	if _, err := New(Options{Drive: drive, Batching: BatchOptions{Enabled: true, Linger: -1}}); err == nil {
		t.Fatal("negative Linger accepted")
	}
	// Disabled options are never validated — the zero value must work.
	if _, err := New(Options{Drive: drive, Batching: BatchOptions{MaxTasks: -1}}); err != nil {
		t.Fatalf("disabled batching rejected: %v", err)
	}
	o := BatchOptions{Enabled: true}
	d := o.withDefaults()
	if d.MaxTasks != 64 || d.MaxBytes != 1<<20 || d.Linger != 0.005 {
		t.Fatalf("defaults = %+v", d)
	}
}

// TestBatcherTaskTimeoutAbandonsWaitOnly pins that one sub-task's
// deadline expiring abandons only its own wait: the batch POST rides
// the run context, so batch-mates still get their frames.
func TestBatcherTaskTimeoutAbandonsWaitOnly(t *testing.T) {
	drive := sharedfs.NewMem()
	bs := newBatchServer(t, drive)
	tasks := []*wfformat.Task{
		synthTask("fast", bs.url(), nil),
		synthTask("doomed", bs.url(), nil),
	}
	p, err := newInvocationPlan(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{
		Drive:    drive,
		Batching: BatchOptions{Enabled: true, MaxTasks: 2, Linger: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := m.newResilience(context.Background(), p, time.Now(), &runState{})
	defer rs.close()

	expired, cancel := context.WithCancel(context.Background())
	cancel() // the doomed task's attempt context is already dead
	var wg sync.WaitGroup
	var fastErr, doomedErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		doomedErr = rs.post(expired, attempt{p: p, id: 1}).err
	}()
	go func() {
		defer wg.Done()
		// Give the doomed submission a moment to enroll first so both
		// land in one batch (MaxTasks 2 seals on the second).
		time.Sleep(10 * time.Millisecond)
		out := rs.post(context.Background(), attempt{p: p, id: 0})
		err := out.err
		if err == nil && !out.resp.OK {
			err = fmt.Errorf("response not OK")
		}
		fastErr = err
	}()
	wg.Wait()
	if doomedErr == nil {
		t.Fatal("expired attempt context returned no error")
	}
	if fastErr != nil {
		t.Fatalf("batch-mate dragged down by an abandoned wait: %v", fastErr)
	}
}

// TestBatchLateAnswerAfterAbandonedWait: a task whose TaskTimeout gives
// up on a batch the endpoint is sitting on must fail alone and for good.
// When the endpoint answers that batch after all, the outcome lands in a
// slot nobody reads: the worker that abandoned it is by then waiting on
// its next task's batch and takes that task's own answer; the gate ends
// balanced and no goroutine outlives the run.
func TestBatchLateAnswerAfterAbandonedWait(t *testing.T) {
	before := runtime.NumGoroutine()
	drive := sharedfs.NewMem()
	bs := newBatchServer(t, drive)
	stalled := make(chan struct{})  // closed when a-stalled's batch has reached the endpoint
	released := make(chan struct{}) // closed to let that batch be answered
	bs.frameHook = func(req *wfbench.Request, attempt int) (wfbench.BatchResult, bool) {
		switch req.Name {
		case "a-stalled":
			close(stalled)
			<-released
		case "b-next":
			// The abandoned batch is answered first, and its response is on its
			// way to the flusher, before this one is.
			close(released)
			time.Sleep(5 * time.Millisecond)
		}
		return wfbench.BatchResult{}, false
	}
	gate := newCountingGate(1)
	m, err := New(Options{
		Drive: drive, TimeScale: 0.001, InputWait: 5, Scheduling: ScheduleDependency,
		MaxParallel: 1, ContinueOnError: true, TaskTimeout: 30, Gate: gate,
		Batching: BatchOptions{Enabled: true, MaxTasks: 8, Linger: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := wfformat.New("late-answer")
	synthAdd(t, w, synthTask("a-stalled", bs.url(), nil))
	synthAdd(t, w, synthTask("b-next", bs.url(), nil))
	res, err := m.Run(context.Background(), w)
	if err == nil || len(res.Failed) != 1 || res.Failed[0] != "a-stalled" {
		t.Fatalf("run = %v, failed %v: want a-stalled alone to fail", err, res.Failed)
	}
	select {
	case <-stalled:
	default:
		t.Fatal("a-stalled's batch never reached the endpoint")
	}
	if a := res.Tasks["a-stalled"]; !errors.Is(a.Err, ErrTaskTimeout) || a.Response != nil {
		t.Fatalf("a-stalled = %+v, want a task timeout and no response", a)
	}
	if b := res.Tasks["b-next"]; b.Err != nil || b.Response == nil || b.Response.Name != "b-next" || b.Attempts != 1 {
		t.Fatalf("b-next = %+v (response %+v), want its own answer at the first attempt", b, b.Response)
	}
	if g, r := gate.grants.Load(), gate.releases.Load(); g != 2 || r != 2 || gate.held.Load() != 0 {
		t.Fatalf("gate: %d grants, %d releases, %d held", g, r, gate.held.Load())
	}
	bs.srv.Close()
	m.opts.Client.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: before=%d now=%d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
