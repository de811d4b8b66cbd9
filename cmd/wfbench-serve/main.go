// Command wfbench-serve runs WfBench as a Service standalone: an HTTP
// server answering POST /wfbench with real CPU/memory/IO stress against
// a disk-backed shared directory — the paper's containerized WfBench
// deployment, minus the container. Pair it with cmd/wfm pointing
// workflows at this address.
//
// Example:
//
//	wfbench-serve -addr :8080 -workers 10 -workdir /mnt/data/shared -burn
//	curl localhost:8080/wfbench -X POST -H 'Content-Type: application/json' \
//	  -d '{"name":"split_fasta_00000001","percent-cpu":0.6,"cpu-work":100,
//	       "out":{"split_fasta_00000001_output.txt":204082},"inputs":[]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 10, "worker pool size (gunicorn --workers)")
		workdir   = flag.String("workdir", "wfbench-data", "shared directory for I/O")
		keepMem   = flag.Bool("keep-mem", false, "persistent memory between invocations (--vm-keep)")
		burn      = flag.Bool("burn", true, "really burn CPU at the duty cycle (false: sleep)")
		timeScale = flag.Float64("time-scale", 1.0, "nominal-second to wall-second factor")
		inputWait = flag.Duration("input-wait", 10*time.Second, "max wait for input files")

		// Fault-injection profile: any non-zero rate wraps the service in
		// a wfbench.Injector — the chaos endpoint for exercising the
		// workflow manager's retries, timeouts, and circuit breaker.
		faultError      = flag.Float64("fault-error-rate", 0, "probability of answering 500 without executing")
		faultReject     = flag.Float64("fault-reject-rate", 0, "probability of answering 429 Too Many Requests")
		faultRetryAfter = flag.Float64("fault-retry-after", 0, "Retry-After hint (seconds) on injected 429s")
		faultLatRate    = flag.Float64("fault-latency-rate", 0, "probability of delaying a request")
		faultLatency    = flag.Duration("fault-latency", 0, "base injected delay")
		faultLatJitter  = flag.Duration("fault-latency-jitter", 0, "uniform extra delay on top of -fault-latency")
		faultHangRate   = flag.Float64("fault-hang-rate", 0, "probability of hanging until the client gives up")
		faultMaxHang    = flag.Duration("fault-max-hang", 0, "upper bound on an injected hang (0: 30s)")
		faultSeed       = flag.Int64("fault-seed", 0, "seed for the fault sequence (0: fixed default)")

		spanLog = flag.String("span-log", "", "record phase spans for requests carrying a Traceparent header; written as JSONL on shutdown")
	)
	flag.Parse()

	drive, err := sharedfs.NewDisk(*workdir)
	if err != nil {
		fatal(err)
	}
	var engine wfbench.Engine = wfbench.SimEngine{}
	if *burn {
		engine = wfbench.BurnEngine{}
	}
	// Tracing here is entirely caller-driven: the tracer only records
	// spans as children of a propagated Traceparent, so the sampling
	// decision stays with the workflow manager that minted the trace.
	var tracer *obs.Tracer
	if *spanLog != "" {
		tracer = obs.NewTracer(obs.Options{SampleRatio: 1})
	}
	bench, err := wfbench.New(wfbench.Config{
		Drive:     drive,
		Engine:    engine,
		TimeScale: *timeScale,
		InputWait: *inputWait,
		KeepMem:   *keepMem,
		Tracer:    tracer,
	})
	if err != nil {
		fatal(err)
	}
	svc, err := wfbench.NewService(bench, *workers)
	if err != nil {
		fatal(err)
	}
	var handler http.Handler = svc
	profile := wfbench.FaultProfile{
		ErrorRate:     *faultError,
		RejectRate:    *faultReject,
		RetryAfter:    *faultRetryAfter,
		LatencyRate:   *faultLatRate,
		Latency:       *faultLatency,
		LatencyJitter: *faultLatJitter,
		HangRate:      *faultHangRate,
		MaxHang:       *faultMaxHang,
		Seed:          *faultSeed,
	}
	if profile.Active() {
		inj, err := wfbench.NewInjector(svc, profile)
		if err != nil {
			fatal(err)
		}
		handler = wfbench.NewEndpoint(inj)
		log.Printf("wfbench-serve: fault injection on: error=%.2f reject=%.2f (retry-after %gs) latency=%.2f@%v+%v hang=%.2f",
			profile.ErrorRate, profile.RejectRate, profile.RetryAfter,
			profile.LatencyRate, profile.Latency, profile.LatencyJitter, profile.HangRate)
	}
	// The telemetry plane (/metrics, /healthz, /debug/pprof) bypasses the
	// fault injector: an operator watching a chaos run still needs honest
	// metrics and profiles. Only /wfbench and /invoke-batch ride through
	// the faults.
	mux := obs.TelemetryMux(svc.WriteMetrics)
	mux.Handle("/wfbench", handler)
	mux.Handle("/invoke-batch", handler)
	log.Printf("wfbench-serve: listening on %s, %d workers, workdir %s, keep-mem=%v burn=%v (telemetry: /metrics /healthz /debug/pprof)",
		*addr, *workers, drive.Root(), *keepMem, *burn)
	srv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srv.Shutdown(context.Background())
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	if tracer != nil {
		recs := obs.RecordsOf(tracer.Take())
		f, err := os.Create(*spanLog)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteJSONL(f, recs); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		log.Printf("wfbench-serve: wrote %d spans to %s", len(recs), *spanLog)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfbench-serve:", err)
	os.Exit(1)
}
