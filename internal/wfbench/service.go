package wfbench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wfserverless/internal/metrics"
	"wfserverless/internal/obs"
)

// Service is WfBench as a Service: an HTTP handler answering
// POST /wfbench with a Request body, backed by a bounded pool of workers
// — the paper's "gunicorn --workers N" deployment knob. When all workers
// are busy, additional requests block until one frees up, exactly like a
// pre-fork worker pool with an unbounded backlog.
type Service struct {
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

// Execute runs one request on the next free worker, blocking until one
// is available. It is the library-call equivalent of POST /wfbench.
func (s *Service) Execute(req *Request) (*Response, error) {
	return s.execute(context.Background(), req)
}

func (s *Service) execute(ctx context.Context, req *Request) (*Response, error) {
	w := <-s.workers
	s.active.Add(1)
	defer func() {
		s.active.Add(-1)
		s.workers <- w
	}()
	s.requests.Add(1)
	start := time.Now()
	// Workers honour no per-request deadline: the paper configures
	// gunicorn with --timeout 0.
	resp, err := w.Execute(ctx, req)
	s.latency.ObserveDuration(time.Since(start))
	if err != nil {
		s.failures.Add(1)
	}
	return resp, err
}

// WriteMetrics emits the service's operational series in Prometheus
// text exposition format — the standalone deployment's GET /metrics.
func (s *Service) WriteMetrics(w io.Writer) error {
	write := func(name, typ, help string, v float64) error {
		_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
		return err
	}
	if err := write("wfbench_workers", "gauge", "worker pool size", float64(s.nWorkers)); err != nil {
		return err
	}
	if err := write("wfbench_active", "gauge", "requests currently executing", float64(s.active.Load())); err != nil {
		return err
	}
	if err := write("wfbench_requests_total", "counter", "cumulative requests served", float64(s.requests.Load())); err != nil {
		return err
	}
	if err := write("wfbench_failures_total", "counter", "cumulative failed requests", float64(s.failures.Load())); err != nil {
		return err
	}
	return s.latency.WriteProm(w, "wfbench_execution_seconds",
		"per-request execution wall time including worker wait")
}

// ServeHTTP implements http.Handler for POST /wfbench, POST
// /invoke-batch, GET /healthz and GET /metrics.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case r.URL.Path == "/metrics" && r.Method == http.MethodGet:
		obs.ServeMetrics(w, r, s.WriteMetrics)
	case r.URL.Path == "/invoke-batch" && r.Method == http.MethodPost:
		s.serveBatch(w, r)
	case r.URL.Path == "/wfbench" && r.Method == http.MethodPost:
		var req Request
		if err := ReadRequest(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The trace context rides a background context (workers ignore
		// client disconnects, like the platform's pods) so phase spans
		// still parent onto the caller's invoke span.
		ctx := context.Background()
		if sc, ok := obs.ParseTraceparent(r.Header.Get("Traceparent")); ok {
			ctx = obs.ContextWithSpan(ctx, sc)
		}
		resp, err := s.execute(ctx, &req)
		status := http.StatusOK
		if err != nil {
			status = http.StatusInternalServerError
		}
		WriteResponse(w, status, resp)
	default:
		http.NotFound(w, r)
	}
}

// ReadRequest reads, decodes and validates a single-task invocation
// body: the front half of every /wfbench handler. The body drains into
// a pooled buffer that grows with the bytes received, never with the
// Content-Length header, and is decoded in place (the decoder copies
// what it keeps).
func ReadRequest(r *http.Request, req *Request) error {
	buf := requestBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r.Body)
	if err == nil {
		err = UnmarshalRequest(buf.Bytes(), req)
	}
	requestBufs.Put(buf)
	if err != nil {
		return fmt.Errorf("bad request: %v", err)
	}
	return req.Validate()
}

// requestBufs recycles request-read buffers across invocations.
var requestBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteResponse answers a single-task invocation with resp as JSON, plus
// the newline json.Encoder always wrote here: the bytes on the wire.
func WriteResponse(w http.ResponseWriter, status int, resp *Response) {
	body, err := MarshalResponse(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}
