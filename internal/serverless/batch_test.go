package serverless

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

func frame(t *testing.T, r *wfbench.Request) wfbench.BatchItem {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return wfbench.BatchItem{Body: body}
}

// TestInvokeBatchMixedFrames pins the platform batch surface: valid
// sub-tasks fan out across the pod fleet and answer 200, an
// unparseable frame answers 400, a function failure answers 500 with
// its Response JSON — no frame's fate leaks into another's.
func TestInvokeBatchMixedFrames(t *testing.T) {
	drive := sharedfs.NewMem()
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), drive))
	if err := p.Apply(ServiceConfig{Name: "wfbench", Workers: 2, CPURequestPerWorker: 1, MemRequestPerWorker: 64 << 20}); err != nil {
		t.Fatal(err)
	}
	doomed := benchReq("doomed", 10)
	doomed.Inputs = []string{"never-appears.txt"}
	items := []wfbench.BatchItem{
		frame(t, benchReq("b1", 10)),
		{Body: []byte("{nope")},
		frame(t, benchReq("b2", 10)),
		frame(t, doomed),
	}
	results := p.InvokeBatch(context.Background(), "wfbench", items)
	if len(results) != 4 {
		t.Fatalf("%d frames, want 4", len(results))
	}
	for i, want := range []int{200, 400, 200, 500} {
		if results[i].Status != want {
			t.Fatalf("frame %d status = %d, want %d (payload %q)", i, results[i].Status, want, results[i].Payload)
		}
	}
	for _, i := range []int{0, 2} {
		var r wfbench.Response
		if err := json.Unmarshal(results[i].Payload, &r); err != nil || !r.OK {
			t.Fatalf("frame %d payload = %q (%v)", i, results[i].Payload, err)
		}
	}
	var failed wfbench.Response
	if err := json.Unmarshal(results[3].Payload, &failed); err != nil || failed.OK {
		t.Fatalf("failed frame payload = %q (%v)", results[3].Payload, err)
	}
	if !drive.Exists("b1_out") || !drive.Exists("b2_out") {
		t.Fatal("batch outputs not published to the drive")
	}
	// Requests counts sub-tasks, not POSTs: three frames were valid.
	if p.Requests() != 3 {
		t.Fatalf("requests = %d, want 3", p.Requests())
	}
	if p.Failures() != 1 {
		t.Fatalf("failures = %d, want 1", p.Failures())
	}
}

// TestInvokeBatchUnknownService answers every frame 503.
func TestInvokeBatchUnknownService(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	results := p.InvokeBatch(context.Background(), "ghost",
		[]wfbench.BatchItem{frame(t, benchReq("x", 1)), frame(t, benchReq("y", 1))})
	for i, res := range results {
		if res.Status != http.StatusServiceUnavailable || !strings.Contains(string(res.Payload), "ghost") {
			t.Fatalf("frame %d = %+v, want 503 naming the service", i, res)
		}
	}
}

// TestIngressBatchRoute: a frame refused by a full queue carries the 429
// and the Retry-After a single-task POST would have been answered with.
func TestIngressBatchRoute(t *testing.T) {
	rec := postFullQueue(t, "/s/invoke-batch", wfbench.EncodeBatchRequest([]wfbench.BatchItem{frame(t, benchReq("b", 1))}))
	results, err := wfbench.DecodeBatchResponse(rec.Body)
	if rec.Code != http.StatusOK || err != nil || len(results) != 1 {
		t.Fatalf("status %d, %d frames, err %v", rec.Code, len(results), err)
	}
	if results[0].Status != http.StatusTooManyRequests || results[0].RetryAfterMillis <= 0 {
		t.Fatalf("frame = %+v, want 429 with a Retry-After", results[0])
	}
}

// TestInvokeBatchLargeFanout pushes a batch wider than the worker pool
// through one call: every frame completes, exercising the shared
// response channel and queue backpressure.
func TestInvokeBatchLargeFanout(t *testing.T) {
	drive := sharedfs.NewMem()
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), drive))
	if err := p.Apply(ServiceConfig{Name: "wfbench", Workers: 2, MaxScale: 4, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	const n = 32
	items := make([]wfbench.BatchItem, n)
	for i := range items {
		items[i] = frame(t, benchReq(fmt.Sprintf("wide%02d", i), 5))
	}
	results := p.InvokeBatch(context.Background(), "wfbench", items)
	for i, res := range results {
		if res.Status != http.StatusOK {
			t.Fatalf("frame %d status = %d (%q)", i, res.Status, res.Payload)
		}
	}
	for i := 0; i < n; i++ {
		if !drive.Exists(fmt.Sprintf("wide%02d_out", i)) {
			t.Fatalf("wide%02d output missing", i)
		}
	}
}

func TestSplitBatchPath(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	body := wfbench.EncodeBatchRequest([]wfbench.BatchItem{frame(t, benchReq("r", 1))})
	for path, want := range map[string]string{
		"/wfbench/invoke-batch": "wfbench",
		"/svc/invoke-batch/":    "svc",
		"/invoke-batch":         "",
		"//invoke-batch":        "404",
		"/a/b/invoke-batch":     "404",
	} {
		if got := routed(t, p, path, body); got != want {
			t.Errorf("POST %s reached %q, want %q", path, got, want)
		}
	}
}

// heldEngine holds every stress phase at full duty until released; any
// other duty runs through at once.
type heldEngine struct{ release chan struct{} }

func (e heldEngine) Run(ctx context.Context, _ time.Duration, duty float64) error {
	if duty == 1 {
		<-e.release
	}
	return nil
}

// TestCancelledBatchIsNotRecycled: a batch whose caller gives up while
// pods are still executing its frames leaves workers holding its
// requests, so neither it nor its invocations may be handed to the
// batches that follow. The held workers, let go after several more
// batches have been through the same handler, must still publish their
// own outputs — and the race detector must have nothing to say about a
// decoder writing what a worker reads.
func TestCancelledBatchIsNotRecycled(t *testing.T) {
	drive := sharedfs.NewMem()
	opts := fastOpts(cluster.PaperTestbed(), drive)
	opts.ColdStart = 0
	engine := heldEngine{release: make(chan struct{})}
	opts.Engine = engine
	p := startPlatform(t, opts)
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 6, MinScale: 1, MaxScale: 1}); err != nil {
		t.Fatal(err)
	}
	post := func(ctx context.Context, names []string, duty float64) *httptest.ResponseRecorder {
		items := make([]wfbench.BatchItem, len(names))
		for i, name := range names {
			req := benchReq(name, 1)
			req.PercentCPU, req.MemBytes = duty, 0
			items[i] = frame(t, req)
		}
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/s/invoke-batch", bytes.NewReader(wfbench.EncodeBatchRequest(items)))
		p.ServeHTTP(rec, r.WithContext(ctx))
		return rec
	}

	held := []string{"held-a", "held-b", "held-c"}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Give up once all three frames are on a worker, inside the engine.
		waitUntil(t, 2*time.Second, func() bool { return p.Stats().Services["s"].Queued == 0 && p.Requests() == 3 }, "held frames dequeued")
		cancel()
	}()
	results, err := wfbench.DecodeBatchResponse(post(ctx, held, 1).Body)
	if err != nil || len(results) != len(held) {
		t.Fatalf("cancelled batch: %d frames, %v", len(results), err)
	}
	for i, res := range results {
		if res.Status != http.StatusServiceUnavailable || !strings.Contains(string(res.Payload), "context canceled") {
			t.Fatalf("frame %d of the cancelled batch = %d %q", i, res.Status, res.Payload)
		}
	}

	// The batches that follow would be handed the cancelled one's slabs.
	for round := 0; round < 8; round++ {
		names := []string{fmt.Sprintf("next-%d-x", round), fmt.Sprintf("next-%d-y", round), fmt.Sprintf("next-%d-z", round)}
		results, err := wfbench.DecodeBatchResponse(post(context.Background(), names, 0.5).Body)
		if err != nil || len(results) != len(names) {
			t.Fatalf("round %d: %d frames, %v", round, len(results), err)
		}
		for i, res := range results {
			var resp wfbench.Response
			if err := json.Unmarshal(res.Payload, &resp); res.Status != http.StatusOK || err != nil || resp.Name != names[i] {
				t.Fatalf("round %d frame %d = %d %q, want %s done", round, i, res.Status, res.Payload, names[i])
			}
		}
	}

	close(engine.release)
	waitUntil(t, 2*time.Second, func() bool {
		return drive.Exists("held-a_out") && drive.Exists("held-b_out") && drive.Exists("held-c_out")
	}, "the held workers publish their own requests' outputs")
	if n := len(drive.List()); n != len(held)+8*3 {
		t.Fatalf("drive holds %d files %v, want one per request", n, drive.List())
	}
}
