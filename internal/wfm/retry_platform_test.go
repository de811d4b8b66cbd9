package wfm

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfgen"
)

// flakyEngine is the wfbench simulation with every failEvery-th run
// failing.
type flakyEngine struct {
	failEvery int64
	runs      atomic.Int64
}

func (e *flakyEngine) Run(ctx context.Context, wall time.Duration, duty float64) error {
	if n := e.runs.Add(1); n%e.failEvery == 0 {
		return fmt.Errorf("injected fault on run %d", n)
	}
	return wfbench.SimEngine{}.Run(ctx, wall, duty)
}

// TestRetriesRecoverOnRealPlatform injects engine faults into the
// serverless platform and verifies the manager's retry path completes
// the workflow end to end.
func TestRetriesRecoverOnRealPlatform(t *testing.T) {
	cl := cluster.PaperTestbed()
	drive := sharedfs.NewMem()
	flaky := &flakyEngine{failEvery: 5}
	p, err := serverless.New(serverless.Options{
		Cluster:         cl,
		Drive:           drive,
		TimeScale:       0.002,
		ColdStart:       0.5,
		AutoscalePeriod: 0.5,
		StableWindow:    10,
		InputWait:       5,
		Engine:          flaky,
	})
	if err != nil {
		t.Fatal(err)
	}
	url, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := p.Apply(serverless.ServiceConfig{Name: "wfbench", Workers: 4, CPURequestPerWorker: 1}); err != nil {
		t.Fatal(err)
	}

	w, err := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := translator.Knative(w, translator.KnativeOptions{IngressURL: url})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{
		Drive: drive, TimeScale: 0.002, PhaseDelay: 0.5, InputWait: 5,
		Retries: 4, RetryBackoff: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), kn)
	if err != nil {
		t.Fatalf("retries did not recover from injected faults: %v", err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed = %v", res.Failed)
	}
	// More engine runs than tasks proves retries actually happened.
	if flaky.runs.Load() <= int64(w.Len()) {
		t.Fatalf("engine runs = %d, want > %d (retries)", flaky.runs.Load(), w.Len())
	}
	if p.Failures() == 0 {
		t.Fatal("platform recorded no failures despite injection")
	}
}
