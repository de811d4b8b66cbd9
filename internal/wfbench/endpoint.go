package wfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"wfserverless/internal/fastjson"
	"wfserverless/internal/obs"
)

// Executor is what stands behind a function endpoint: a platform, the
// standalone Service, a router, a stub. route is the path segment before
// /wfbench ("" when there is none); the executor decides what it names.
// An error without a Response is the surface's failure (503, or what a
// StatusError says); with one it is the function's (500 and the Response).
// req is the caller's again once Invoke returns, unless ctx was done by
// then: only a caller that gave up may leave an execution behind.
type Executor interface {
	Invoke(ctx context.Context, route string, req *Request) (*Response, error)
}

// BatchExecutor is an Executor with a batch path cheaper than an Invoke
// per frame. Frames arrive undecoded (Batch.Decode); it files in
// b.Results what a single-task POST would have answered (ResultFrame).
type BatchExecutor interface {
	Executor
	ServeBatch(ctx context.Context, route string, b *Batch)
}

// StatusError is an executor error that names its own HTTP status and,
// for backpressure, how long the caller should stay away.
type StatusError struct {
	Status     int
	RetryAfter time.Duration
	Err        error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// Endpoint serves the function-endpoint wire protocol over an Executor:
//
//	POST /wfbench, /<route>/wfbench            one Request, one Response
//	POST /invoke-batch, /<route>/invoke-batch  the framed batch (batch.go)
//	GET  /healthz                              "ok"
//
// Anything else is 404, a body that does not decode or validate is 400.
type Endpoint struct{ exec Executor }

// NewEndpoint returns the handler for exec.
func NewEndpoint(exec Executor) *Endpoint { return &Endpoint{exec} }

func (e *Endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		fmt.Fprintln(w, "ok")
		return
	}
	route, batch, ok := SplitPath(r.URL.Path)
	if !ok || r.Method != http.MethodPost {
		http.NotFound(w, r)
		return
	}
	if batch {
		b := batches.Get().(*Batch)
		defer b.release()
		body, err := readBatchBody(b.body, r)
		b.body = body
		if err == nil {
			err = b.load()
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
			return
		}
		if batch, ok := e.exec.(BatchExecutor); ok {
			batch.ServeBatch(r.Context(), route, b)
		} else {
			// The default batch path: every frame its own Invoke.
			b.Decode()
			b.fanOut(r.Context(), func(ctx context.Context, i int) (*Response, error) {
				return e.exec.Invoke(ctx, route, &b.Reqs[i])
			})
		}
		b.out = appendBatchResponse(b.out[:0], b.Results)
		writeBatchBody(w, b.out)
		return
	}
	var req Request
	if err := readRequest(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Requests without a Traceparent pay only this header probe.
	ctx := r.Context()
	if tp := r.Header.Get("Traceparent"); tp != "" {
		ctx = traceContext(ctx, tp)
	}
	resp, err := e.exec.Invoke(ctx, route, &req)
	status, retryAfter := statusOf(resp, err)
	if resp == nil {
		if retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.FormatFloat(retryAfter.Seconds(), 'f', -1, 64))
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeResponse(w, status, resp)
}

// SplitPath parses a function-endpoint path, allocation-free: "/wfbench"
// and "/invoke-batch" have the empty route, "/<route>/wfbench" and
// "/<route>/invoke-batch" a single non-empty segment; one trailing slash
// is tolerated.
func SplitPath(path string) (route string, batch, ok bool) {
	path = strings.TrimSuffix(path, "/")
	switch {
	case strings.HasSuffix(path, "/wfbench"):
		path = path[:len(path)-len("/wfbench")]
	case strings.HasSuffix(path, "/invoke-batch"):
		path, batch = path[:len(path)-len("/invoke-batch")], true
	default:
		return "", false, false
	}
	if path == "" {
		return "", batch, true
	}
	if path[0] != '/' || len(path) == 1 || strings.IndexByte(path[1:], '/') >= 0 {
		return "", false, false
	}
	return path[1:], batch, true
}

func traceContext(ctx context.Context, traceparent string) context.Context {
	if sc, ok := obs.ParseTraceparent(traceparent); ok {
		return obs.ContextWithSpan(ctx, sc)
	}
	return ctx
}

// statusOf maps an outcome to its status, for both paths.
func statusOf(resp *Response, err error) (status int, retryAfter time.Duration) {
	if err == nil {
		return http.StatusOK, 0
	}
	// Declared past the success return: errors.As makes it escape.
	var se *StatusError
	switch {
	case errors.As(err, &se):
		return se.Status, se.RetryAfter
	case resp == nil:
		return http.StatusServiceUnavailable, 0
	}
	return http.StatusInternalServerError, 0
}

// readRequest reads, decodes and validates a single-task body. The body
// drains into a pooled buffer that grows with the bytes received, never
// with the Content-Length header, and is decoded in place (the decoder
// copies what it keeps).
func readRequest(r *http.Request, req *Request) error {
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

// writeResponse answers a single-task invocation with resp as JSON, plus
// the newline json.Encoder always wrote here: the bytes on the wire.
func writeResponse(w http.ResponseWriter, status int, resp *Response) {
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

// Batch is one /invoke-batch request on the serving side, in slabs
// indexed by frame that are recycled from request to request: a Request
// with its Out map and Inputs array, the body and response buffers. What
// a frame's execution keeps aliases none of them: Name, Inputs and
// Workdir are cut from one immutable copy of the body made per batch, Out
// keys (they become drive keys, and must not pin that copy) are copied.
// An executor that returns while a frame it handed out is still executing
// must Abandon the batch.
type Batch struct {
	Items   []BatchItem   // the frames, aliasing the body
	Reqs    []Request     // after Decode: frame i's request, unless Results[i] says 400
	Resps   []Response    // frame i's Response, for whoever executes it to fill
	Results []BatchResult // frame i's answer; zero until it has one (Pending)

	body      []byte
	text      string // string(body), what the requests' strings are cut from
	offs      []int  // where Items[i].Body starts in body
	inputs    []string
	out       []byte // the response body
	abandoned bool
}

// batches recycles the Batch of a request that was answered in full.
var batches = sync.Pool{New: func() any { return new(Batch) }}

// NewBatch returns a Batch of its own, never recycled, for a request
// body: what an executor's ServeBatch is handed outside the handler.
func NewBatch(body []byte) (*Batch, error) {
	b := &Batch{body: body, abandoned: true}
	return b, b.load()
}

// load splits b.body into frames and sizes the slabs to them.
func (b *Batch) load() (err error) {
	b.text = string(b.body)
	if b.Items, b.offs, err = decodeBatchItems(b.Items, b.offs, b.body); err != nil {
		return err
	}
	n := len(b.Items)
	b.Reqs, b.Resps, b.Results = resize(b.Reqs, n), resize(b.Resps, n), resize(b.Results, n)
	clear(b.Results)
	return nil
}

// release recycles b, unless an executor still holds part of it or it
// grew past what is worth keeping.
func (b *Batch) release() {
	if !b.abandoned && cap(b.body) <= maxPresizeBytes {
		batches.Put(b)
	}
}

// Abandon takes b out of recycling.
func (b *Batch) Abandon() { b.abandoned = true }

// Pending reports whether frame i has no result yet: after Decode, that
// it is a valid request waiting to be executed.
func (b *Batch) Pending(i int) bool { return b.Results[i].Status == 0 }

// Decode decodes and validates every frame into Reqs, answering 400 to
// one that fails either, and returns the input-file union of the rest
// (valid until b is recycled).
func (b *Batch) Decode() (inputs []string) {
	inputs = b.inputs[:0]
	for i, it := range b.Items {
		req := &b.Reqs[i]
		// Reuse the containers of the request that had this slot before.
		out, ins := req.Out, req.Inputs
		clear(out)
		*req = Request{}
		off := b.offs[i]
		var err error
		if !fastUnmarshalRequest(fastjson.NewParserText(it.Body, b.text[off:off+len(it.Body)]), req, out, ins) {
			*req = Request{}
			err = json.Unmarshal(it.Body, req)
		}
		if err != nil {
			err = fmt.Errorf("bad request: %v", err)
		} else {
			err = req.Validate()
		}
		if err != nil {
			b.Results[i] = BatchResult{Status: http.StatusBadRequest, Payload: []byte(err.Error())}
			continue
		}
		inputs = append(inputs, req.Inputs...)
	}
	b.inputs = inputs
	return inputs
}

// ResultFrame renders one sub-invocation's outcome as the frame a
// single-task POST would have answered: the Response when there is one
// (its JSON is rendered when the batch is), the error text and its
// Retry-After otherwise.
func ResultFrame(resp *Response, err error) BatchResult {
	status, retryAfter := statusOf(resp, err)
	if resp == nil {
		return BatchResult{Status: status, RetryAfterMillis: retryAfter.Milliseconds(), Payload: []byte(err.Error())}
	}
	return BatchResult{Status: status, Response: resp}
}

// fanOut runs every pending frame concurrently, each under its own
// frame's trace context, and files the outcomes in request order.
func (b *Batch) fanOut(ctx context.Context, run func(ctx context.Context, i int) (*Response, error)) {
	var wg sync.WaitGroup
	for i := range b.Items {
		if !b.Pending(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Results[i] = ResultFrame(run(traceContext(ctx, b.Items[i].Traceparent), i))
		}(i)
	}
	wg.Wait()
	if ctx.Err() != nil {
		b.Abandon() // an Invoke that was told to give up may have left its request executing
	}
}

// Loopback is an HTTP server on a loopback port of the kernel's choosing:
// how every in-process surface is reached by URL.
type Loopback struct {
	srv *http.Server
	url string
}

// ListenLoopback starts serving h.
func ListenLoopback(h http.Handler) (*Loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wfbench: loopback listen: %w", err)
	}
	l := &Loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go l.srv.Serve(ln) // returns when Close shuts the server down
	return l, nil
}

// URL returns the base URL ("" on a nil Loopback).
func (l *Loopback) URL() string {
	if l == nil {
		return ""
	}
	return l.url
}

// Close drops the listener and every connection at once — whoever stops
// a surface is done with it, and a graceful shutdown would sit out the
// server's five-second patience with connections a client dialled and
// never used. A nil Loopback has nothing to close.
func (l *Loopback) Close() {
	if l != nil {
		l.srv.Close()
	}
}
