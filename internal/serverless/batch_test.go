package serverless

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

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
