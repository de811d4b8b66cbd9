package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"wfserverless/internal/cluster"
	"wfserverless/internal/obs"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfbench/conformance"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

// memberPlatform starts one platform over its own single-node cluster
// but a shared drive.
func memberPlatform(t *testing.T, drive sharedfs.Drive, name string) *serverless.Platform {
	return tracedMember(t, drive, name, nil)
}

func tracedMember(t *testing.T, drive sharedfs.Drive, name string, tr *obs.Tracer) *serverless.Platform {
	t.Helper()
	clus := cluster.New(cluster.NewNode(cluster.NodeSpec{
		Name: name, Cores: 16, MemBytes: 32 << 30, IdleWatts: 50, MaxWatts: 150,
	}))
	p, err := serverless.New(serverless.Options{
		Cluster:         clus,
		Drive:           drive,
		TimeScale:       0.002,
		ColdStart:       0.5,
		AutoscalePeriod: 0.5,
		StableWindow:    10,
		InputWait:       5,
		Tracer:          tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	if err := p.Apply(serverless.ServiceConfig{Name: "wfbench", Workers: 4, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}
	return p
}

func benchReq(name string) *wfbench.Request {
	return &wfbench.Request{
		Name: name, PercentCPU: 0.5, CPUWork: 20,
		Out: map[string]int64{name + "_out": 1},
	}
}

func TestNewValidation(t *testing.T) {
	drive := sharedfs.NewMem()
	p := memberPlatform(t, drive, "a")
	if _, err := NewRouter(RoundRobin); err == nil {
		t.Fatal("no members accepted")
	}
	if _, err := NewRouter(Policy("weird"), Member{Name: "a", Platform: p}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := NewRouter(RoundRobin, Member{Name: "", Platform: p}); err == nil {
		t.Fatal("unnamed member accepted")
	}
	if _, err := NewRouter(RoundRobin, Member{Name: "a", Platform: p}, Member{Name: "a", Platform: p}); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestRoundRobinSpread(t *testing.T) {
	drive := sharedfs.NewMem()
	a := memberPlatform(t, drive, "a")
	b := memberPlatform(t, drive, "b")
	r, err := NewRouter(RoundRobin, Member{Name: "a", Platform: a}, Member{Name: "b", Platform: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Invoke(context.Background(), "wfbench", benchReq(fmt.Sprintf("f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sent := r.Sent()
	if sent[0] != 5 || sent[1] != 5 {
		t.Fatalf("spread = %v, want 5/5", sent)
	}
	if a.Requests() != 5 || b.Requests() != 5 {
		t.Fatalf("member requests = %d/%d", a.Requests(), b.Requests())
	}
}

func TestLeastQueuedPrefersIdle(t *testing.T) {
	drive := sharedfs.NewMem()
	a := memberPlatform(t, drive, "a")
	b := memberPlatform(t, drive, "b")
	r, err := NewRouter(LeastQueued, Member{Name: "a", Platform: a}, Member{Name: "b", Platform: b})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.Invoke(context.Background(), "wfbench", benchReq(fmt.Sprintf("q%d", i)))
		}(i)
	}
	wg.Wait()
	sent := r.Sent()
	if sent[0]+sent[1] != 20 {
		t.Fatalf("sent = %v", sent)
	}
	if sent[0] == 0 || sent[1] == 0 {
		t.Fatalf("least-queued starved a member: %v", sent)
	}
}

// TestHTTPEndpointAndWorkflowRun holds the router, behind the shared
// handler, to the function endpoint's conformance table, then runs a
// whole workflow through it.
func TestHTTPEndpointAndWorkflowRun(t *testing.T) {
	drive, tr := sharedfs.NewMem(), obs.NewTracer(obs.Options{SampleRatio: 1})
	a := tracedMember(t, drive, "a", tr)
	b := tracedMember(t, drive, "b", tr)
	r, err := NewRouter(RoundRobin, Member{Name: "a", Platform: a}, Member{Name: "b", Platform: b})
	if err != nil {
		t.Fatal(err)
	}
	conformance.Run(t, conformance.Surface{
		Handler: wfbench.NewEndpoint(r), Executor: r, Drive: drive, Route: "wfbench", Unknown: "ghost",
		UnknownStatus: http.StatusServiceUnavailable, ChecksInputs: true, SawTrace: conformance.TracerSaw(tr),
	})

	front, err := wfbench.ListenLoopback(wfbench.NewEndpoint(r))
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	w, err := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := translator.Knative(w, translator.KnativeOptions{IngressURL: front.URL()})
	if err != nil {
		t.Fatal(err)
	}
	before := []int64{a.Requests(), b.Requests()}
	mgr, err := wfm.New(wfm.Options{Drive: drive, TimeScale: 0.002, PhaseDelay: 0.5, InputWait: 5,
		Batching: wfm.BatchOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Run(context.Background(), kn); err != nil {
		t.Fatal(err)
	}
	if a.Requests() == before[0] || b.Requests() == before[1] {
		t.Fatalf("federated run did not use both clusters: %d/%d", a.Requests(), b.Requests())
	}
}

func TestUnknownServiceSurfacesError(t *testing.T) {
	drive := sharedfs.NewMem()
	a := memberPlatform(t, drive, "a")
	r, _ := NewRouter(RoundRobin, Member{Name: "a", Platform: a})
	if _, err := r.Invoke(context.Background(), "ghost", benchReq("x")); err == nil {
		t.Fatal("unknown service accepted")
	}
}
