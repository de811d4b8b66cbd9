package wfm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"wfserverless/internal/wfbench"
)

// BatchOptions configures the per-endpoint batching dispatcher: ready
// tasks destined for the same api_url coalesce into one POST against
// the endpoint's /invoke-batch surface instead of one POST per task,
// amortizing connection, header, and syscall overhead — the HTTP/1
// request-per-task wall at 100k-task scale. The batch body reuses the
// task payloads the run encoded into its body arena, zero-copy; responses
// come back as a framed stream carrying per-task HTTP semantics, so
// retry, timeout, circuit-breaker, journal, and span behaviour is
// per task exactly as without batching — a failed sub-task retries
// alone (in a later batch), never dragging its batch-mates with it.
// The zero value disables batching and leaves the single-task wire
// format byte-identical to previous releases.
type BatchOptions struct {
	// Enabled turns the dispatcher on.
	Enabled bool
	// MaxTasks seals a batch at this many sub-tasks; zero defaults
	// to 64.
	MaxTasks int
	// MaxBytes seals a batch when adding a task would push the summed
	// payload bytes past it; zero defaults to 1 MiB.
	MaxBytes int
	// Linger is the nominal-seconds window the first task of a batch
	// waits for company before the batch is dispatched anyway (scaled
	// like every other duration); zero defaults to 0.005. Batches
	// normally seal on MaxTasks under load — the linger only bounds the
	// tail when fewer ready tasks than MaxTasks exist.
	Linger float64
}

func (o *BatchOptions) withDefaults() BatchOptions {
	b := *o
	if b.MaxTasks <= 0 {
		b.MaxTasks = 64
	}
	if b.MaxBytes <= 0 {
		b.MaxBytes = 1 << 20
	}
	if b.Linger <= 0 {
		b.Linger = 0.005
	}
	return b
}

func (o *BatchOptions) validate() error {
	if !o.Enabled {
		return nil
	}
	if o.MaxTasks < 0 || o.MaxBytes < 0 {
		return errors.New("wfm: negative Batching MaxTasks/MaxBytes")
	}
	if o.Linger < 0 {
		return errors.New("wfm: negative Batching Linger")
	}
	return nil
}

// sharedBatchHeader is the immutable header map of every batch POST.
var sharedBatchHeader = http.Header{"Content-Type": {wfbench.BatchContentType}}

// endpointBatch accumulates one endpoint's pending sub-tasks until the
// batch seals (count bound, byte bound, or linger expiry), and then
// carries their outcomes: the flusher fills outs, one slot per member in
// enrolment order, and closes done. A member waits on done holding its
// index; one that gave up simply never reads its slot.
type endpointBatch struct {
	endpoint string
	url      *url.URL
	ids      []int32
	tps      []string
	bytes    int
	timer    *time.Timer
	sealed   bool

	frames batchFrames
	outs   []outcome
	done   chan struct{}
}

// batcher is the run-scoped batching dispatcher: one pending batch per
// endpoint, fed by the run's worker goroutines. The goroutine that
// seals a batch flushes it; waiters block on the batch's done channel
// with their own task context, so a task timeout abandons only that
// task's wait, never the batch.
type batcher struct {
	p  *invocationPlan
	rs *resilience
	// ctx is the run-lifetime context batch POSTs ride on: a sub-task
	// abandoning its wait must not abort the POST its batch-mates are
	// still waiting for.
	ctx      context.Context
	maxTasks int
	maxBytes int
	linger   time.Duration

	mu      sync.Mutex
	pending map[string]*endpointBatch
}

// newBatcher returns the run's dispatcher over plan p. ctx is the run
// context.
func (m *Manager) newBatcher(ctx context.Context, p *invocationPlan, rs *resilience) *batcher {
	o := m.opts.Batching.withDefaults()
	return &batcher{
		p:        p,
		rs:       rs,
		ctx:      ctx,
		maxTasks: o.MaxTasks,
		maxBytes: o.MaxBytes,
		linger:   m.scaled(o.Linger),
		pending:  make(map[string]*endpointBatch),
	}
}

func (b *batcher) taskName(id int32) string { return b.p.tasks[id].Name }

// invokeOnce is the batched transport, the counterpart of
// Manager.invokeOnce: it enrolls the task in its endpoint's pending
// batch and waits for the task's own frame of the batch response. ctx is
// the task's attempt context (run context plus TaskTimeout); the batch
// POST itself runs under the run context.
func (b *batcher) invokeOnce(ctx context.Context, a attempt) outcome {
	id := a.id
	tp := ""
	if sc := a.span.Context(); sc.Sampled {
		tp = sc.Traceparent()
	}
	body, err := b.rs.st.bodies.body(b.p, id)
	if err != nil {
		return outcome{err: err}
	}
	endpoint := b.p.tasks[id].Command.APIURL

	var sealed, prev *endpointBatch
	b.mu.Lock()
	eb := b.pending[endpoint]
	if eb != nil && eb.bytes+len(body) > b.maxBytes && len(eb.ids) > 0 {
		// Byte bound: the pending batch departs as-is and this task
		// opens the endpoint's next one.
		b.sealLocked(eb)
		prev, eb = eb, nil
	}
	if eb == nil {
		eb = &endpointBatch{
			endpoint: endpoint,
			url:      b.p.urls[id],
			ids:      make([]int32, 0, b.maxTasks),
			tps:      make([]string, 0, b.maxTasks),
			done:     make(chan struct{}),
		}
		b.pending[endpoint] = eb
		cur := eb
		eb.timer = time.AfterFunc(b.linger, func() { b.flushExpired(cur) })
	}
	slot := len(eb.ids)
	eb.ids = append(eb.ids, id)
	eb.tps = append(eb.tps, tp)
	eb.bytes += len(body)
	if len(eb.ids) >= b.maxTasks {
		b.sealLocked(eb)
		sealed = eb
	}
	b.mu.Unlock()

	if prev != nil {
		// The byte-bound predecessor belongs to other waiters; this
		// goroutine still owes its own batch a wait, so flush async.
		go b.flush(prev)
	}
	if sealed != nil {
		b.flush(sealed)
	}

	select {
	case <-eb.done:
		return eb.outs[slot]
	case <-ctx.Done():
		// Both may be ready, and select picks either: a frame the endpoint
		// answered is the task's outcome even when a batch-mate's failure
		// has cancelled the run meanwhile.
		select {
		case <-eb.done:
			return eb.outs[slot]
		default:
		}
		return outcome{err: fmt.Errorf("wfm: %s: batched request: %w", b.taskName(id), ctx.Err())}
	}
}

// sealLocked detaches a batch from the pending map so no further task
// can join it. Callers hold b.mu.
func (b *batcher) sealLocked(eb *endpointBatch) {
	if eb.sealed {
		return
	}
	eb.sealed = true
	if eb.timer != nil {
		eb.timer.Stop()
	}
	if b.pending[eb.endpoint] == eb {
		delete(b.pending, eb.endpoint)
	}
}

// flushExpired is the linger timer's path: dispatch whatever the batch
// gathered, unless a bound already sealed it.
func (b *batcher) flushExpired(eb *endpointBatch) {
	b.mu.Lock()
	if eb.sealed {
		b.mu.Unlock()
		return
	}
	b.sealLocked(eb)
	b.mu.Unlock()
	b.flush(eb)
}

// close flushes any still-pending batches so no waiter is left behind
// on run teardown.
func (b *batcher) close() {
	b.mu.Lock()
	var leftovers []*endpointBatch
	for _, eb := range b.pending {
		b.sealLocked(eb)
		leftovers = append(leftovers, eb)
	}
	b.mu.Unlock()
	for _, eb := range leftovers {
		b.flush(eb)
	}
}

// flush POSTs one sealed batch and files each sub-task's outcome in the
// batch's slab, mirroring invokeOnce's classification frame by frame:
// whole-POST transport errors and non-200 batch statuses apply to every
// member; within a 200 response, each frame carries its own status,
// Retry-After, and payload, so one corrupt or failed sub-response
// cannot poison its batch-mates. A framing error (the stream itself
// unreadable) fails the remaining members as retriable, like a
// transport error would have. The waiters wake only when every slot is
// filled, all at once: no member can see the run cancelled by a
// batch-mate's failure before its own answered frame is there to take.
func (b *batcher) flush(eb *endpointBatch) {
	eb.outs = make([]outcome, len(eb.ids))
	defer close(eb.done)
	if hs := b.rs.st.health; hs != nil { // batch occupancy, for the baseline table
		hs.tracker.RecordBatch(eb.endpoint, len(eb.ids))
	}
	eb.frames.frame(&b.rs.st.bodies, eb.ids, eb.tps)
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           batchURL(eb.url),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        sharedBatchHeader,
		Body:          &segmentReader{f: &eb.frames},
		ContentLength: eb.frames.total,
		GetBody:       func() (io.ReadCloser, error) { return &segmentReader{f: &eb.frames}, nil },
	}).WithContext(b.ctx)
	// failFrom fails members i.. alike, on what ("batched request", ...).
	failFrom := func(i int, retriable bool, what string, err error) {
		for ; i < len(eb.ids); i++ {
			eb.outs[i] = outcome{retriable: retriable, err: fmt.Errorf("wfm: %s: %s: %w", b.taskName(eb.ids[i]), what, err)}
		}
	}
	hres, err := b.rs.m.opts.Client.Do(req)
	if err != nil {
		failFrom(0, b.ctx.Err() == nil, "batched request", err)
		return
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 1024))
		hint := ParseRetryAfter(hres.Header.Get("Retry-After"))
		for i, id := range eb.ids {
			eb.outs[i] = statusFailure(b.taskName(id), hres.StatusCode, hint, msg)
		}
		return
	}
	// Read the body in one pre-sized allocation; the reader's frames
	// then alias it instead of copying per task.
	var body []byte
	if n := hres.ContentLength; n >= 0 {
		body = make([]byte, n)
		_, err = io.ReadFull(hres.Body, body)
	} else {
		body, err = io.ReadAll(hres.Body)
	}
	var br *wfbench.BatchResponseReader
	if err == nil {
		br, err = wfbench.NewBatchResponseReaderBytes(body)
	}
	if err == nil && br.Len() != len(eb.ids) {
		err = fmt.Errorf("frame count %d, want %d", br.Len(), len(eb.ids))
	}
	if err != nil {
		failFrom(0, true, "batch response", err)
		return
	}
	resps := make([]wfbench.Response, len(eb.ids))
	for i, id := range eb.ids {
		f, ferr := br.Next()
		if ferr != nil {
			failFrom(i, true, "batch response", ferr)
			return
		}
		// One sub-task's frame, with the exact semantics invokeOnce applies
		// to a single-task HTTP response.
		if f.Status != http.StatusOK {
			eb.outs[i] = statusFailure(b.taskName(id), f.Status,
				time.Duration(f.RetryAfterMillis)*time.Millisecond, f.Payload)
			continue
		}
		eb.outs[i] = b.rs.decodeResponse(b.taskName(id), f.Payload, nil, &resps[i])
	}
}

// batchURL derives an endpoint's batch surface from its single-task
// api_url: a translated ".../wfbench" suffix is swapped for
// "/invoke-batch" (matching both the platform ingress's
// /<service>/invoke-batch route and the standalone service); any other
// path gets "/invoke-batch" appended.
func batchURL(u *url.URL) *url.URL {
	out := *u
	switch {
	case strings.HasSuffix(out.Path, "/wfbench"):
		out.Path = strings.TrimSuffix(out.Path, "/wfbench") + "/invoke-batch"
	default:
		out.Path = strings.TrimSuffix(out.Path, "/") + "/invoke-batch"
	}
	out.RawPath = ""
	return &out
}
