package container

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfbench/conformance"
)

func fastOpts(c *cluster.Cluster, d sharedfs.Drive) Options {
	return Options{
		Cluster:           c,
		Drive:             d,
		TimeScale:         0.002,
		InputWait:         2,
		PodOverheadMem:    10 << 20,
		WorkerOverheadMem: 1 << 20,
		PodOverheadCPU:    0.01,
	}
}

func startRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	rt, err := NewRuntime(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt
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

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Name: "c", Workers: 1}, true},
		{Config{Name: "", Workers: 1}, false},
		{Config{Name: "a b", Workers: 1}, false},
		{Config{Name: "c", Workers: 0}, false},
		{Config{Name: "c", Workers: 1, CPUs: -1}, false},
		{Config{Name: "c", Workers: 1, MemLimit: -1}, false},
	}
	for i, c := range cases {
		if err := c.cfg.validate(); (err == nil) != c.ok {
			t.Errorf("case %d: err=%v want ok=%v", i, err, c.ok)
		}
	}
}

func TestRunAndInvoke(t *testing.T) {
	cl := cluster.PaperTestbed()
	rt := startRuntime(t, fastOpts(cl, sharedfs.NewMem()))
	c, err := rt.Run(Config{Name: "wfbench", Workers: 4, CPUs: 2, MemLimit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.Invoke(context.Background(), "wfbench", benchReq("f1", 50))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Pod != "wfbench" {
		t.Fatalf("resp = %+v", resp)
	}
	if c.Served() != 1 {
		t.Fatalf("served = %d", c.Served())
	}
	// container reserves for its whole lifetime
	if got := cl.Snapshot().ReservedCores; got != 2 {
		t.Fatalf("ReservedCores = %v, want 2", got)
	}
}

func TestReservationHeldUntilRemove(t *testing.T) {
	cl := cluster.PaperTestbed()
	rt := startRuntime(t, fastOpts(cl, sharedfs.NewMem()))
	if _, err := rt.Run(Config{Name: "c1", Workers: 2, CPUs: 4, MemLimit: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	u := cl.Snapshot()
	if u.ReservedCores != 4 || u.ReservedMem != 1<<30 {
		t.Fatalf("reservation missing: %+v", u)
	}
	// base overhead resident while idle: 10MB + 2x1MB workers
	if u.UsedMem != 12<<20 {
		t.Fatalf("UsedMem = %d, want 12MB overhead", u.UsedMem)
	}
	rt.Remove("c1")
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		u = cl.Snapshot()
		if u.ReservedCores == 0 && u.UsedMem == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("Remove leaked resources: %+v", u)
}

func TestDuplicateName(t *testing.T) {
	rt := startRuntime(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	if _, err := rt.Run(Config{Name: "c", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(Config{Name: "c", Workers: 1}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestNoCRReservesNothing(t *testing.T) {
	cl := cluster.PaperTestbed()
	rt := startRuntime(t, fastOpts(cl, sharedfs.NewMem()))
	if _, err := rt.Run(Config{Name: "nocr", Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if got := cl.Snapshot().ReservedCores; got != 0 {
		t.Fatalf("NoCR reserved %v cores", got)
	}
	// Unlimited memory: a huge ballast request is admitted.
	big := benchReq("big", 10)
	big.MemBytes = 8 << 30
	if _, err := rt.Invoke(context.Background(), "nocr", big); err != nil {
		t.Fatal(err)
	}
}

func TestMemLimitOOM(t *testing.T) {
	cl := cluster.PaperTestbed()
	rt := startRuntime(t, fastOpts(cl, sharedfs.NewMem()))
	// limit: 16MB; base overhead is 10+1 = 11MB, so a 6MB ballast
	// exceeds it.
	if _, err := rt.Run(Config{Name: "tight", Workers: 1, MemLimit: 16 << 20}); err != nil {
		t.Fatal(err)
	}
	req := benchReq("oom", 10)
	req.MemBytes = 6 << 20
	_, err := rt.Invoke(context.Background(), "tight", req)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
	if rt.OOMs() != 1 {
		t.Fatalf("OOMs = %d", rt.OOMs())
	}
	// A small request still fits.
	small := benchReq("ok", 10)
	small.MemBytes = 1 << 20
	if _, err := rt.Invoke(context.Background(), "tight", small); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerPoolExceedsLimitRejected(t *testing.T) {
	rt := startRuntime(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	// 10MB base + 10 workers x 1MB = 20MB > 15MB limit.
	if _, err := rt.Run(Config{Name: "c", Workers: 10, MemLimit: 15 << 20}); !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestRoundRobinDispatch(t *testing.T) {
	cl := cluster.PaperTestbed()
	rt := startRuntime(t, fastOpts(cl, sharedfs.NewMem()))
	for i := 0; i < 3; i++ {
		if _, err := rt.Run(Config{Name: fmt.Sprintf("c%d", i), Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := rt.Invoke(context.Background(), "", benchReq(fmt.Sprintf("f%d", i), 100)); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}(i)
	}
	wg.Wait()
	// All containers should have shared the load.
	for _, c := range rt.Containers() {
		if c.Served() == 0 {
			t.Fatalf("container %s served nothing", c.Name())
		}
	}
	if rt.Requests() != 12 {
		t.Fatalf("requests = %d", rt.Requests())
	}
}

func TestInvokeNoContainers(t *testing.T) {
	rt := startRuntime(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	if _, err := rt.Invoke(context.Background(), "", benchReq("f", 1)); err == nil {
		t.Fatal("invoke with no containers succeeded")
	}
	if _, err := rt.Invoke(context.Background(), "ghost", benchReq("f", 1)); err == nil {
		t.Fatal("unknown container accepted")
	}
}

func TestPMBallastPersistsForRunLifetime(t *testing.T) {
	cl := cluster.PaperTestbed()
	rt := startRuntime(t, fastOpts(cl, sharedfs.NewMem()))
	c, err := rt.Run(Config{Name: "pm", Workers: 1, KeepMem: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(context.Background(), "pm", benchReq("f1", 10)); err != nil {
		t.Fatal(err)
	}
	// 11MB overhead + 4MB kept ballast
	if got := c.MemUsed(); got != 15<<20 {
		t.Fatalf("MemUsed = %d, want 15MB", got)
	}
	// NoPM counterpart drops back to overhead after each call.
	c2, err := rt.Run(Config{Name: "nopm", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(context.Background(), "nopm", benchReq("f2", 10)); err != nil {
		t.Fatal(err)
	}
	if got := c2.MemUsed(); got != 11<<20 {
		t.Fatalf("NoPM MemUsed = %d, want 11MB", got)
	}
}

// TestHTTPEndpoint holds the runtime to the function endpoint's
// conformance table, on the fleet route (the paper's curl
// localhost:80/wfbench) and on a named container's.
func TestHTTPEndpoint(t *testing.T) {
	drive := sharedfs.NewMem()
	rt := startRuntime(t, fastOpts(cluster.PaperTestbed(), drive))
	if _, err := rt.Run(Config{Name: "wfbench", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	hr, err := http.Get(rt.URL() + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz over the listener: %v %v", hr, err)
	}
	hr.Body.Close()
	spy := &conformance.Spy{Executor: rt}
	for _, route := range []string{"", "wfbench"} {
		conformance.Run(t, conformance.Surface{
			Handler: wfbench.NewEndpoint(spy), Drive: drive, Route: route, Unknown: "nosuch",
			UnknownStatus: http.StatusServiceUnavailable, ChecksInputs: true, SawTrace: spy.Saw,
		})
	}
}

func TestWorkerPoolBoundsParallelism(t *testing.T) {
	cl := cluster.PaperTestbed()
	opts := fastOpts(cl, sharedfs.NewMem())
	opts.TimeScale = 0.02
	rt := startRuntime(t, opts)
	if _, err := rt.Run(Config{Name: "c", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt.Invoke(context.Background(), "c", benchReq(fmt.Sprintf("f%d", i), 100))
		}(i)
	}
	wg.Wait()
	// 6 requests of ~22ms wall (1.11 nominal * 0.02) through 2 workers
	// need >= 3 serial rounds ~= 66ms.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("6 tasks on 2 workers finished in %v; pool not limiting", elapsed)
	}
}

func TestStopIdempotentAndReleases(t *testing.T) {
	cl := cluster.PaperTestbed()
	rt := startRuntime(t, fastOpts(cl, sharedfs.NewMem()))
	if _, err := rt.Run(Config{Name: "a", Workers: 3, CPUs: 1}); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	rt.Stop()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		u := cl.Snapshot()
		if u.ReservedCores == 0 && u.UsedMem == 0 && u.BusyCores == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	u := cl.Snapshot()
	if u.ReservedCores != 0 || u.UsedMem != 0 {
		t.Fatalf("Stop leaked: %+v", u)
	}
	if _, err := rt.Run(Config{Name: "b", Workers: 1}); err == nil {
		t.Fatal("Run after Stop accepted")
	}
}
