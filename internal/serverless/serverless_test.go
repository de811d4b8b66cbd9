package serverless

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfbench/conformance"
)

// fastOpts returns options with aggressive time scaling so tests finish
// in milliseconds.
func fastOpts(c *cluster.Cluster, d sharedfs.Drive) Options {
	return Options{
		Cluster:           c,
		Drive:             d,
		TimeScale:         0.002, // 1 paper-second = 2ms
		ColdStart:         1,     // 2ms wall
		AutoscalePeriod:   1,     // 2ms wall
		StableWindow:      10,    // 20ms wall
		PodOverheadMem:    10 << 20,
		WorkerOverheadMem: 1 << 20,
		PodOverheadCPU:    0.01,
		InputWait:         2,
	}
}

func startPlatform(t *testing.T, opts Options) *Platform {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

func benchReq(name string, work float64) *wfbench.Request {
	return &wfbench.Request{
		Name:       name,
		PercentCPU: 0.9,
		CPUWork:    work,
		MemBytes:   4 << 20,
		Out:        map[string]int64{name + "_out": 10},
	}
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached: %s", msg)
}

func TestServiceConfigValidate(t *testing.T) {
	cases := []struct {
		cfg ServiceConfig
		ok  bool
	}{
		{ServiceConfig{Name: "s", Workers: 1}, true},
		{ServiceConfig{Name: "", Workers: 1}, false},
		{ServiceConfig{Name: "a/b", Workers: 1}, false},
		{ServiceConfig{Name: "s", Workers: 0}, false},
		{ServiceConfig{Name: "s", Workers: 1, MinScale: 2, MaxScale: 1}, false},
		{ServiceConfig{Name: "s", Workers: 1, CPURequestPerWorker: -1}, false},
		{ServiceConfig{Name: "s", Workers: 1, MemLimit: -1}, false},
	}
	for i, c := range cases {
		if err := c.cfg.validate(); (err == nil) != c.ok {
			t.Errorf("case %d: err=%v want ok=%v", i, err, c.ok)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("missing cluster/drive accepted")
	}
	if _, err := New(Options{Cluster: cluster.PaperTestbed(), Drive: sharedfs.NewMem(), TimeScale: -1}); err == nil {
		t.Fatal("negative TimeScale accepted")
	}
}

func TestScaleFromZeroAndInvoke(t *testing.T) {
	c := cluster.PaperTestbed()
	p := startPlatform(t, fastOpts(c, sharedfs.NewMem()))
	err := p.Apply(ServiceConfig{Name: "wfbench", Workers: 2, CPURequestPerWorker: 1, MemRequestPerWorker: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if p.Pods() != 0 {
		t.Fatalf("pods before traffic = %d, want 0 (scale to zero)", p.Pods())
	}
	resp, err := p.Invoke(context.Background(), "wfbench", benchReq("f1", 50))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Pod == "" {
		t.Fatalf("resp = %+v", resp)
	}
	if p.ColdStarts() < 1 {
		t.Fatal("no cold start recorded")
	}
	if p.Requests() != 1 {
		t.Fatalf("requests = %d", p.Requests())
	}
}

func TestInvokeUnknownService(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	if _, err := p.Invoke(context.Background(), "ghost", benchReq("f", 1)); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestMinScaleWarmPods(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	err := p.Apply(ServiceConfig{Name: "warm", Workers: 1, MinScale: 3, CPURequestPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Pods(); got != 3 {
		t.Fatalf("pods = %d, want 3", got)
	}
	// MinScale pods survive idleness.
	time.Sleep(60 * time.Millisecond) // >> stable window
	if got := p.Pods(); got != 3 {
		t.Fatalf("pods after idle = %d, want 3 (min scale)", got)
	}
}

func TestAutoscaleUpAndDown(t *testing.T) {
	c := cluster.PaperTestbed()
	p := startPlatform(t, fastOpts(c, sharedfs.NewMem()))
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), "s", benchReq(fmt.Sprintf("f%d", i), 400)); err != nil {
				t.Errorf("invoke %d: %v", i, err)
			}
		}(i)
	}
	waitUntil(t, 5*time.Second, func() bool { return p.Pods() >= 4 }, "autoscaler never scaled up")
	wg.Wait()
	// After the burst, pods idle past the stable window are reclaimed
	// down to zero.
	waitUntil(t, 5*time.Second, func() bool { return p.Pods() == 0 }, "autoscaler never scaled to zero")
	// Reservations returned to the cluster.
	waitUntil(t, time.Second, func() bool { return c.Snapshot().ReservedCores == 0 }, "reservations leaked")
	if got := c.Snapshot().UsedMem; got != 0 {
		t.Fatalf("leaked memory: %d", got)
	}
}

func TestMaxScaleRespected(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, MaxScale: 2, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.Invoke(context.Background(), "s", benchReq(fmt.Sprintf("m%d", i), 200))
		}(i)
	}
	seenOver := false
	for i := 0; i < 50; i++ {
		if p.Pods() > 2 {
			seenOver = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	if seenOver {
		t.Fatal("pod count exceeded MaxScale")
	}
}

func TestResourceExhaustionStallsScaling(t *testing.T) {
	// Tiny cluster: room for exactly one pod.
	small := cluster.New(cluster.NewNode(cluster.NodeSpec{
		Name: "tiny", Cores: 2, MemBytes: 1 << 30, IdleWatts: 10, MaxWatts: 20,
	}))
	opts := fastOpts(small, sharedfs.NewMem())
	p := startPlatform(t, opts)
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, CPURequestPerWorker: 2, MemRequestPerWorker: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), "s", benchReq(fmt.Sprintf("x%d", i), 100)); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if p.ScaleStalls() == 0 {
		t.Fatal("expected scale stalls on a full cluster")
	}
	if p.Pods() > 1 {
		t.Fatalf("pods = %d, want <= 1 on a 2-core cluster", p.Pods())
	}
}

// TestHTTPIngress holds the ingress to the function endpoint's
// conformance table.
func TestHTTPIngress(t *testing.T) {
	drive, tr := sharedfs.NewMem(), obs.NewTracer(obs.Options{SampleRatio: 1})
	opts := fastOpts(cluster.PaperTestbed(), drive)
	opts.Tracer = tr
	p := startPlatform(t, opts)
	if err := p.Apply(ServiceConfig{Name: "wfbench", Workers: 2, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	conformance.Run(t, conformance.Surface{
		Handler: p, Executor: p, Drive: drive, Route: "wfbench", Unknown: "nosuch", UnknownStatus: http.StatusServiceUnavailable,
		ChecksInputs: true, SawTrace: conformance.TracerSaw(tr),
	})
}

func TestFailedInvocationCountsFailure(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	req := benchReq("needy", 10)
	req.Inputs = []string{"never-appears.txt"}
	_, err := p.Invoke(context.Background(), "s", req)
	if err == nil {
		t.Fatal("missing input succeeded")
	}
	if p.Failures() != 1 {
		t.Fatalf("failures = %d", p.Failures())
	}
}

func TestApplyReplaceAndDelete(t *testing.T) {
	c := cluster.PaperTestbed()
	p := startPlatform(t, fastOpts(c, sharedfs.NewMem()))
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, MinScale: 2, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	if p.Pods() != 2 {
		t.Fatalf("pods = %d", p.Pods())
	}
	// replace with a different shape
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 4, MinScale: 1, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, time.Second, func() bool { return p.Pods() == 1 }, "replacement did not converge")
	p.Delete("s")
	waitUntil(t, time.Second, func() bool { return p.Pods() == 0 }, "delete left pods")
	waitUntil(t, time.Second, func() bool { return c.Snapshot().ReservedCores == 0 }, "delete leaked reservations")
	if _, err := p.Invoke(context.Background(), "s", benchReq("f", 1)); err == nil {
		t.Fatal("deleted service still invocable")
	}
}

func TestApplyInvalidAndAfterStop(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	if err := p.Apply(ServiceConfig{Name: "", Workers: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
	p.Stop()
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1}); err == nil {
		t.Fatal("Apply after Stop accepted")
	}
	// Stop is idempotent.
	p.Stop()
}

func TestPMBallastFreedWithPods(t *testing.T) {
	// With KeepMem, worker ballast persists across invocations but is
	// released when the pod scales down — the serverless PM advantage.
	c := cluster.PaperTestbed()
	opts := fastOpts(c, sharedfs.NewMem())
	p := startPlatform(t, opts)
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, CPURequestPerWorker: 1, KeepMem: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "s", benchReq("f1", 20)); err != nil {
		t.Fatal(err)
	}
	// ballast + pod overhead resident while pod is warm
	if got := c.Snapshot().UsedMem; got < 4<<20 {
		t.Fatalf("expected resident ballast, UsedMem = %d", got)
	}
	waitUntil(t, 5*time.Second, func() bool { return p.Pods() == 0 }, "pod never reclaimed")
	waitUntil(t, time.Second, func() bool { return c.Snapshot().UsedMem == 0 }, "ballast leaked after scale-down")
}

func TestQueueFullTimesOut(t *testing.T) {
	small := cluster.New(cluster.NewNode(cluster.NodeSpec{Name: "t", Cores: 1, MemBytes: 1 << 30}))
	opts := fastOpts(small, sharedfs.NewMem())
	opts.QueueCapacity = 1
	p := startPlatform(t, opts)
	// Service whose pods can never be placed (needs 4 cores on a
	// 1-core node) — requests sit in the queue forever.
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, CPURequestPerWorker: 4}); err != nil {
		t.Fatal(err)
	}
	fill := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		close(fill)
		p.Invoke(ctx, "s", benchReq("a", 1)) // occupies the queue slot
	}()
	<-fill
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := p.Invoke(ctx, "s", benchReq("b", 1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestColdStartLatencyObserved(t *testing.T) {
	// With a large cold start, the first invocation must take at least
	// that long end to end.
	opts := fastOpts(cluster.PaperTestbed(), sharedfs.NewMem())
	opts.ColdStart = 25 // 50ms at scale 0.002
	p := startPlatform(t, opts)
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := p.Invoke(context.Background(), "s", benchReq("f", 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("first invocation took %v, want >= cold start 50ms", elapsed)
	}
	// Warm path is much faster.
	start = time.Now()
	if _, err := p.Invoke(context.Background(), "s", benchReq("g", 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("warm invocation took %v", elapsed)
	}
}

func TestStatsEndpoint(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 2, MinScale: 1, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "s", benchReq("f", 10)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	// The min-scale pod is the deployment; it served the request warm.
	if st.Requests != 1 || st.ColdStarts != 0 {
		t.Fatalf("stats = %+v", st)
	}
	ss, ok := st.Services["s"]
	if !ok || ss.Pods < 1 {
		t.Fatalf("service stats = %+v", st.Services)
	}

	// HTTP form
	resp, err := http.Get(p.URL() + "/stats")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET /stats: %v %v", resp.StatusCode, err)
	}
	defer resp.Body.Close()
	var got Stats
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Requests != 1 {
		t.Fatalf("http stats = %+v", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	if err := p.Apply(ServiceConfig{Name: "m", Workers: 1, MinScale: 1, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "m", benchReq("f", 10)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(p.URL() + "/metrics")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %v %v", resp.StatusCode, err)
	}
	defer resp.Body.Close()
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	out := string(body[:n])
	for _, want := range []string{
		"wfserverless_requests_total 1",
		"wfserverless_cold_starts_total",
		`wfserverless_service_pods{service="m"}`,
		"# TYPE wfserverless_pods gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// fullQueue starts a platform whose service "s" cannot be placed, so its
// single queue slot fills and never drains.
func fullQueue(t *testing.T) *Platform {
	t.Helper()
	small := cluster.New(cluster.NewNode(cluster.NodeSpec{Name: "t", Cores: 1, MemBytes: 1 << 30}))
	opts := fastOpts(small, sharedfs.NewMem())
	opts.QueueCapacity = 1
	p := startPlatform(t, opts)
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, CPURequestPerWorker: 4}); err != nil {
		t.Fatal(err)
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		p.Invoke(ctx, "s", benchReq("a", 1))
	}()
	waitUntil(t, time.Second, func() bool { return p.Stats().QueueDepth == 1 }, "queue never filled")
	return p
}

func TestQueueFullIsOverloaded(t *testing.T) {
	p := fullQueue(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := p.Invoke(ctx, "s", benchReq("b", 1))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
}

// postFullQueue POSTs body to the full-queue platform's path as a client
// that gives up after 50ms.
func postFullQueue(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rec := httptest.NewRecorder()
	fullQueue(t).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
	return rec
}

func TestIngressMapsOverloadTo429(t *testing.T) {
	body, _ := json.Marshal(benchReq("b", 1))
	rec := postFullQueue(t, "/s/wfbench", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %q", rec.Code, rec.Body.String())
	}
	ra, err := strconv.ParseFloat(rec.Header().Get("Retry-After"), 64)
	if err != nil || ra <= 0 {
		t.Fatalf("Retry-After = %q, want positive seconds", rec.Header().Get("Retry-After"))
	}
}

func TestIngressMapsStoppedTo503(t *testing.T) {
	opts := fastOpts(cluster.PaperTestbed(), sharedfs.NewMem())
	p := startPlatform(t, opts)
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 1, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	_, err := p.Invoke(context.Background(), "s", benchReq("a", 1))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	body, _ := json.Marshal(benchReq("b", 1))
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/s/wfbench", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("stopped platform sent a Retry-After hint")
	}
}

var noSuchService = regexp.MustCompile(`no such service "([^"]*)"`)

// routed POSTs body to path on a platform with no services and reports
// the service the ingress looked up — named in the 503 text, or in the
// 503 frame of a batch — or "404".
func routed(t *testing.T, p *Platform, path string, body []byte) string {
	t.Helper()
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code == http.StatusNotFound {
		return "404"
	}
	m := noSuchService.FindSubmatch(rec.Body.Bytes())
	if m == nil {
		t.Fatalf("POST %s: status %d, body %q", path, rec.Code, rec.Body)
	}
	return string(m[1])
}

// TestSplitInvokePath pins the route grammar as the ingress serves it,
// including the tolerated trailing slash.
func TestSplitInvokePath(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	body, _ := json.Marshal(benchReq("r", 1))
	for path, want := range map[string]string{
		"/blastall/wfbench": "blastall",
		"/s/wfbench/":       "s",
		"/wfbench":          "",
		"//wfbench":         "404",
		"/a/b/wfbench":      "404",
		"/s/other":          "404",
		"/stats":            "404",
	} {
		if got := routed(t, p, path, body); got != want {
			t.Errorf("POST %s reached %q, want %q", path, got, want)
		}
	}
}
