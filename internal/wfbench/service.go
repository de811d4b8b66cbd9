package wfbench

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"wfserverless/internal/metrics"
	"wfserverless/internal/obs"
)

// Service is WfBench as a Service: the function endpoint (endpoint.go)
// plus GET /metrics, backed by a bounded pool of workers
// — the paper's "gunicorn --workers N" deployment knob. When all workers
// are busy, additional requests block until one frees up, exactly like a
// pre-fork worker pool with an unbounded backlog.
type Service struct {
	endpoint *Endpoint
	bench    *Bench
	workers  chan *Worker
	nWorkers int
	requests atomic.Int64
	active   atomic.Int64
	failures atomic.Int64
	// latency tracks per-request execution wall time (worker wait
	// included), exposed as a histogram at GET /metrics.
	latency metrics.Histogram
}

// NewService returns a service with n workers over the bench.
func NewService(b *Bench, n int) (*Service, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wfbench: service needs >= 1 worker, got %d", n)
	}
	s := &Service{bench: b, workers: make(chan *Worker, n), nWorkers: n}
	s.endpoint = NewEndpoint(s)
	for i := 0; i < n; i++ {
		s.workers <- b.NewWorker()
	}
	return s, nil
}

// Workers returns the pool size.
func (s *Service) Workers() int { return s.nWorkers }

// Requests returns the number of requests served so far.
func (s *Service) Requests() int64 { return s.requests.Load() }

// Active returns the number of requests currently executing.
func (s *Service) Active() int64 { return s.active.Load() }

// Close releases persistent ballast held by all workers.
func (s *Service) Close() {
	for i := 0; i < s.nWorkers; i++ {
		w := <-s.workers
		w.Close()
	}
	// refill so a racing handler does not deadlock; workers are reusable
	for i := 0; i < s.nWorkers; i++ {
		s.workers <- s.bench.NewWorker()
	}
}

// Invoke implements Executor: run one request on the next free worker,
// blocking until one is available. The standalone service has a single
// function, so the only route is the empty one.
func (s *Service) Invoke(ctx context.Context, route string, req *Request) (*Response, error) {
	if route != "" {
		return nil, errNoRoute(route)
	}
	resp := new(Response)
	return resp, s.run(context.WithoutCancel(ctx), req, nil, resp)
}

// ServeBatch implements BatchExecutor: verify the batch's input union
// once, then run the sub-tasks concurrently through the bounded worker
// pool.
func (s *Service) ServeBatch(ctx context.Context, route string, b *Batch) {
	if route != "" {
		for i := range b.Results {
			b.Results[i] = ResultFrame(nil, errNoRoute(route))
		}
		return
	}
	cfg := s.bench.cfg
	ctx = context.WithoutCancel(ctx)
	prep := PrepareInputs(ctx, cfg.Drive, b.Decode(), cfg.InputWait)
	b.fanOut(ctx, func(ctx context.Context, i int) (*Response, error) {
		resp := &b.Resps[i]
		return resp, s.run(ctx, &b.Reqs[i], prep, resp)
	})
}

func errNoRoute(route string) error {
	return &StatusError{Status: http.StatusNotFound, Err: fmt.Errorf("wfbench: no such route %q", route)}
}

// run executes req (inputs verified by prep when there is one) on a
// pooled worker. Workers honour no per-request deadline — the paper
// configures gunicorn with --timeout 0 — so Invoke and ServeBatch hand
// it a context that keeps the caller's trace and drops its cancellation.
func (s *Service) run(ctx context.Context, req *Request, prep *BatchPrep, resp *Response) error {
	w := <-s.workers
	s.active.Add(1)
	defer func() {
		s.active.Add(-1)
		s.workers <- w
	}()
	s.requests.Add(1)
	start := time.Now()
	err := w.ExecuteInto(ctx, req, prep, resp)
	s.latency.ObserveDuration(time.Since(start))
	if err != nil {
		s.failures.Add(1)
	}
	return err
}

// WriteMetrics emits the service's operational series in Prometheus
// text exposition format — the standalone deployment's GET /metrics.
func (s *Service) WriteMetrics(w io.Writer) error {
	x := metrics.NewWriter(w)
	x.Single("wfbench_workers", "gauge", "worker pool size", float64(s.nWorkers))
	x.Single("wfbench_active", "gauge", "requests currently executing", float64(s.active.Load()))
	x.Single("wfbench_requests_total", "counter", "cumulative requests served", float64(s.requests.Load()))
	x.Single("wfbench_failures_total", "counter", "cumulative failed requests", float64(s.failures.Load()))
	x.Histogram("wfbench_execution_seconds", "per-request execution wall time including worker wait", &s.latency)
	return x.Err()
}

// ServeHTTP serves the service's own GET /metrics; everything else is
// the function endpoint.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/metrics" && r.Method == http.MethodGet {
		obs.ServeMetrics(w, r, s.WriteMetrics)
		return
	}
	s.endpoint.ServeHTTP(w, r)
}
