package serverless

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfbench/conformance"
)

// TestMinScalePodsAreDeployment: Apply returns once its min-scale pods
// serve, with their overheads on the node, and those pods are not cold
// starts — neither in the counter nor on the first response they give.
func TestMinScalePodsAreDeployment(t *testing.T) {
	c := cluster.PaperTestbed()
	p := startPlatform(t, fastOpts(c, sharedfs.NewMem())) // ColdStart 1
	if err := p.Apply(ServiceConfig{Name: "s", Workers: 2, MinScale: 8}); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Snapshot().UsedMem, int64(8*(10<<20+2<<20)); got != want {
		t.Fatalf("UsedMem on return = %d, want %d: all 8 pods' overheads", got, want)
	}
	if got := p.ColdStarts(); got != 0 {
		t.Fatalf("ColdStarts = %d, want 0", got)
	}
	resp, err := p.Invoke(context.Background(), "s", benchReq("f", 10))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ColdStart {
		t.Fatal("first response of a deployment pod carries ColdStart")
	}
}

// TestFixedScaleLocalContainer holds a fixed-scale service to what the
// paper's local containers do: reserve up front, enforce the memory
// limit, keep PM ballast for the run, bound parallelism by the worker
// pool — and give every byte and core back on Stop.
func TestFixedScaleLocalContainer(t *testing.T) {
	withMem := func(name string, mem int64) *wfbench.Request {
		r := benchReq(name, 10)
		r.MemBytes = mem
		return r
	}
	for _, tc := range []struct {
		name     string
		cfg      ServiceConfig
		applyErr error
		check    func(t *testing.T, p *Platform, c *cluster.Cluster)
	}{
		{name: "reservation", cfg: ServiceConfig{Workers: 2, CPURequestPerWorker: 2, MemLimit: 1 << 30},
			check: func(t *testing.T, p *Platform, c *cluster.Cluster) {
				// The limit sets the request; the pod's overheads are
				// resident while idle: 10MB + 2 x 1MB workers.
				if u := c.Snapshot(); u.ReservedCores != 4 || u.ReservedMem != 1<<30 || u.UsedMem != 12<<20 {
					t.Fatalf("idle fixed pod: %+v", u)
				}
				if _, err := p.Invoke(context.Background(), "lc", benchReq("f", 50)); err != nil {
					t.Fatal(err)
				}
				if u := c.Snapshot(); u.ReservedCores != 4 {
					t.Fatalf("reservation not held after the run: %+v", u)
				}
			}},
		{name: "nocr", cfg: ServiceConfig{Workers: 4},
			check: func(t *testing.T, p *Platform, c *cluster.Cluster) {
				if got := c.Snapshot().ReservedCores; got != 0 {
					t.Fatalf("NoCR reserved %v cores", got)
				}
				// No limit: a huge ballast is admitted.
				if _, err := p.Invoke(context.Background(), "lc", withMem("big", 8<<30)); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "oom", cfg: ServiceConfig{Workers: 1, MemLimit: 16 << 20},
			check: func(t *testing.T, p *Platform, c *cluster.Cluster) {
				// 11MB resident + 6MB > 16MB.
				resp, err := p.Invoke(context.Background(), "lc", withMem("oom", 6<<20))
				if !errors.Is(err, ErrOOM) || resp == nil || resp.OK || resp.Error == "" {
					t.Fatalf("resp %+v, err %v: want ErrOOM with a Response", resp, err)
				}
				if p.Failures() != 1 {
					t.Fatalf("failures = %d", p.Failures())
				}
				body, _ := json.Marshal(withMem("oom-http", 6<<20))
				rec := httptest.NewRecorder()
				p.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/lc/wfbench", bytes.NewReader(body)))
				var r wfbench.Response
				if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &r) != nil || r.Error == "" {
					t.Fatalf("over HTTP: %d %q, want 500 with a Response", rec.Code, rec.Body)
				}
				if _, err := p.Invoke(context.Background(), "lc", withMem("fits", 1<<20)); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "pool over the limit", cfg: ServiceConfig{Workers: 10, MemLimit: 15 << 20}, applyErr: ErrOOM}, // 10MB + 10 x 1MB
		{name: "pm", cfg: ServiceConfig{Workers: 1, KeepMem: true},
			check: func(t *testing.T, p *Platform, c *cluster.Cluster) {
				if _, err := p.Invoke(context.Background(), "lc", benchReq("f", 10)); err != nil {
					t.Fatal(err)
				}
				// 11MB overhead + the 4MB ballast the worker keeps.
				if got := c.Snapshot().UsedMem; got != 15<<20 {
					t.Fatalf("UsedMem = %d, want 15MB", got)
				}
			}},
		{name: "nopm", cfg: ServiceConfig{Workers: 1},
			check: func(t *testing.T, p *Platform, c *cluster.Cluster) {
				if _, err := p.Invoke(context.Background(), "lc", benchReq("f", 10)); err != nil {
					t.Fatal(err)
				}
				if got := c.Snapshot().UsedMem; got != 11<<20 {
					t.Fatalf("UsedMem = %d, want the 11MB overhead", got)
				}
			}},
		{name: "worker pool bounds parallelism", cfg: ServiceConfig{Workers: 2},
			check: func(t *testing.T, p *Platform, c *cluster.Cluster) {
				start := time.Now()
				var wg sync.WaitGroup
				for i := 0; i < 6; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						p.Invoke(context.Background(), "lc", benchReq(fmt.Sprintf("f%d", i), 1000))
					}(i)
				}
				wg.Wait()
				// 6 requests of ~22ms wall (11.1 nominal s x 0.002) on 2
				// workers take >= 3 rounds.
				if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
					t.Fatalf("6 tasks on 2 workers finished in %v; pool not limiting", elapsed)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.PaperTestbed()
			opts := fastOpts(c, sharedfs.NewMem())
			opts.ColdStart = 0
			p := startPlatform(t, opts)
			tc.cfg.Name, tc.cfg.MinScale, tc.cfg.MaxScale = "lc", 1, 1
			if err := p.Apply(tc.cfg); !errors.Is(err, tc.applyErr) {
				t.Fatalf("Apply: %v, want %v", err, tc.applyErr)
			}
			if tc.check != nil {
				tc.check(t, p, c)
			}
			p.Stop()
			waitUntil(t, time.Second, func() bool {
				u := c.Snapshot()
				return u.ReservedCores == 0 && u.ReservedMem == 0 && u.UsedMem == 0 && u.BusyCores < 1e-9
			}, "Stop released the reservation and the resident memory")
		})
	}
}

// TestFixedScaleSpreadsAcrossNodes: a burst on a fixed fleet spans both
// nodes. With one shared queue it would go to the workers that waited
// longest — the first node's — and that node's busy cores would clamp at
// its capacity while the other idled.
func TestFixedScaleSpreadsAcrossNodes(t *testing.T) {
	c := cluster.PaperTestbed()
	opts := fastOpts(c, sharedfs.NewMem())
	opts.ColdStart = 0
	p := startPlatform(t, opts)
	if err := p.Apply(ServiceConfig{Name: "lc", Workers: 10, CPURequestPerWorker: 0.2, MinScale: 48, MaxScale: 48}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), "lc", benchReq(fmt.Sprintf("f%d", i), 20000)); err != nil {
				t.Errorf("invoke %d: %v", i, err)
			}
		}(i)
	}
	// Each invocation runs ~440ms of wall time; sample once all are on a
	// worker.
	waitUntil(t, 5*time.Second, func() bool { return p.Requests() == 100 && p.QueueDepth() == 0 }, "burst dispatched")
	time.Sleep(40 * time.Millisecond)
	nodes := c.Nodes()
	a, b := nodes[0].Snapshot().BusyCores, nodes[1].Snapshot().BusyCores
	wg.Wait()
	if math.Abs(a-b) > 0.25*math.Max(a, b) {
		t.Fatalf("busy cores %s %.1f, %s %.1f: not within 25%%", nodes[0].Spec().Name, a, nodes[1].Spec().Name, b)
	}
}

// TestFixedScaleHTTPIngress holds a fixed-scale service to the function
// endpoint's conformance table.
func TestFixedScaleHTTPIngress(t *testing.T) {
	drive := sharedfs.NewMem()
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), drive))
	if err := p.Apply(ServiceConfig{Name: "wfbench", Workers: 2, MinScale: 3, MaxScale: 3, MemLimit: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	spy := &conformance.Spy{Executor: p}
	conformance.Run(t, conformance.Surface{
		Handler: wfbench.NewEndpoint(spy), Drive: drive, Route: "wfbench", Unknown: "nosuch",
		UnknownStatus: http.StatusServiceUnavailable, ChecksInputs: true, SawTrace: spy.Saw,
	})
}
