package wfbench_test

import (
	"net/http"
	"testing"
	"time"

	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfbench/conformance"
)

// TestServiceHTTPErrors holds the standalone service to the function
// endpoint's conformance table.
func TestServiceHTTPErrors(t *testing.T) {
	drive, tr := sharedfs.NewMem(), obs.NewTracer(obs.Options{SampleRatio: 1})
	b, err := wfbench.New(wfbench.Config{Drive: drive, TimeScale: 0.001, InputWait: 5 * time.Millisecond, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := wfbench.NewService(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	conformance.Run(t, conformance.Surface{
		Handler: svc, Drive: drive, Unknown: "nosuch", UnknownStatus: http.StatusNotFound,
		ChecksInputs: true, SawTrace: conformance.TracerSaw(tr),
	})
}

// TestStubEndpoint does the same for the stub, which takes every route.
func TestStubEndpoint(t *testing.T) {
	drive := sharedfs.NewMem()
	spy := &conformance.Spy{Executor: wfbench.NewStub(drive, 0)}
	conformance.Run(t, conformance.Surface{
		Handler: wfbench.NewEndpoint(spy), Drive: drive, Route: "any", Unknown: "other", UnknownStatus: http.StatusOK,
		SawTrace: spy.Saw,
	})
}
