package wfbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// FaultProfile configures the Injector: how often and how a wrapped
// wfbench endpoint misbehaves. All rates are probabilities in [0, 1]
// evaluated independently per request, in the order hang, latency,
// reject, error. A zero profile injects nothing.
type FaultProfile struct {
	// ErrorRate is the probability of answering 500 without executing.
	ErrorRate float64
	// RejectRate is the probability of answering 429 Too Many Requests
	// with a Retry-After header, modelling platform overload.
	RejectRate float64
	// RetryAfter is the hint (in seconds) sent with injected 429s.
	// Zero omits the header.
	RetryAfter float64
	// LatencyRate is the probability of delaying a request before it
	// reaches the wrapped handler.
	LatencyRate float64
	// Latency is the base injected delay; LatencyJitter adds a uniform
	// random extra on top.
	Latency       time.Duration
	LatencyJitter time.Duration
	// LatencyAfter suppresses latency injection for the first N requests
	// (single POSTs and batch frames both count). A straggler campaign
	// uses it to let fast siblings establish the endpoint's latency
	// baseline before the tail appears.
	LatencyAfter int
	// LatencyOnce delays each distinct task name at most once, so a
	// retry or speculative backup of a delayed task lands on the fast
	// path — the bad-placement straggler model rather than a slow task.
	// Requests whose body carries no task name are never delayed under
	// LatencyOnce.
	LatencyOnce bool
	// HangRate is the probability of never answering: the injector
	// holds the request until the client gives up (request context
	// cancelled) or MaxHang elapses, whichever is first. This is the
	// stalled-pod failure mode per-task timeouts exist for.
	HangRate float64
	// MaxHang bounds a hang so a profile cannot wedge the server
	// forever. Zero means 30s.
	MaxHang time.Duration
	// Seed makes the fault sequence reproducible. Zero seeds from a
	// fixed default so runs are deterministic unless varied explicitly.
	Seed int64
}

// Active reports whether the profile injects any fault at all.
func (p FaultProfile) Active() bool {
	return p.ErrorRate > 0 || p.RejectRate > 0 || p.LatencyRate > 0 || p.HangRate > 0
}

func (p FaultProfile) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"ErrorRate", p.ErrorRate},
		{"RejectRate", p.RejectRate},
		{"LatencyRate", p.LatencyRate},
		{"HangRate", p.HangRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("wfbench: fault %s = %v, want [0, 1]", r.name, r.v)
		}
	}
	if p.RetryAfter < 0 {
		return fmt.Errorf("wfbench: fault RetryAfter = %v, want >= 0", p.RetryAfter)
	}
	if p.Latency < 0 || p.LatencyJitter < 0 || p.MaxHang < 0 {
		return fmt.Errorf("wfbench: fault durations must be >= 0")
	}
	if p.LatencyAfter < 0 {
		return fmt.Errorf("wfbench: fault LatencyAfter = %d, want >= 0", p.LatencyAfter)
	}
	return nil
}

// FaultStats counts what an Injector actually did.
type FaultStats struct {
	Errors  int64 // injected 500s
	Rejects int64 // injected 429s
	Hangs   int64 // requests held until client abandon or MaxHang
	Delays  int64 // latency injections (request still served)
	Passed  int64 // requests forwarded to the wrapped handler
}

// Injector wraps an http.Handler with a configurable failure profile —
// the chaos side of the testbed, driving the workflow manager's retry,
// timeout, and circuit-breaker paths without real infrastructure
// faults. It generalises FlakyEngine from "every Nth run fails" to
// rate-based error, overload, latency, and hang injection at the HTTP
// boundary, where the client's transport actually sees it.
type Injector struct {
	next    http.Handler
	profile FaultProfile

	mu  sync.Mutex
	rng *rand.Rand
	seq int // requests drawn so far, for LatencyAfter

	delayedMu    sync.Mutex
	delayedSet   map[string]bool
	delayedNames []string

	errors  atomic.Int64
	rejects atomic.Int64
	hangs   atomic.Int64
	delays  atomic.Int64
	passed  atomic.Int64
}

// NewInjector wraps next with the given fault profile.
func NewInjector(next http.Handler, p FaultProfile) (*Injector, error) {
	if next == nil {
		return nil, fmt.Errorf("wfbench: injector needs a handler to wrap")
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		next:       next,
		profile:    p,
		rng:        rand.New(rand.NewSource(seed)),
		delayedSet: map[string]bool{},
	}, nil
}

// DelayedNames returns the distinct task names that actually received
// an injected delay, in first-delay order — the ground truth a
// straggler campaign checks its flagged set against.
func (in *Injector) DelayedNames() []string {
	in.delayedMu.Lock()
	defer in.delayedMu.Unlock()
	out := make([]string, len(in.delayedNames))
	copy(out, in.delayedNames)
	return out
}

// admitDelay applies the LatencyAfter/LatencyOnce gates to a fired
// latency draw and records the delayed task name. seq is the request's
// ordinal from draw; name may be empty when the body carried none.
func (in *Injector) admitDelay(seq int, name string) bool {
	p := in.profile
	if p.LatencyAfter > 0 && seq <= p.LatencyAfter {
		return false
	}
	in.delayedMu.Lock()
	defer in.delayedMu.Unlock()
	if p.LatencyOnce {
		if name == "" || in.delayedSet[name] {
			return false
		}
	}
	if name != "" && !in.delayedSet[name] {
		in.delayedSet[name] = true
		in.delayedNames = append(in.delayedNames, name)
	}
	return true
}

// sniffTaskName peeks the wfbench Request name from a single-task POST
// body, restoring the body for the wrapped handler.
func sniffTaskName(r *http.Request) string {
	if r.Body == nil {
		return ""
	}
	data, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(data))
	if err != nil {
		return ""
	}
	return taskNameOf(data)
}

func taskNameOf(body []byte) string {
	var req struct {
		Name string `json:"name"`
	}
	if json.Unmarshal(body, &req) != nil {
		return ""
	}
	return req.Name
}

// Profile returns the configured fault profile.
func (in *Injector) Profile() FaultProfile { return in.profile }

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() FaultStats {
	return FaultStats{
		Errors:  in.errors.Load(),
		Rejects: in.rejects.Load(),
		Hangs:   in.hangs.Load(),
		Delays:  in.delays.Load(),
		Passed:  in.passed.Load(),
	}
}

// draw samples the per-request fault decisions under one lock hold so
// concurrent requests see independent, reproducible streams. seq is the
// request's 1-based ordinal, for the LatencyAfter gate; the rng draw
// order is identical whether or not the gates are configured, so a
// profile stays reproducible when LatencyAfter/LatencyOnce are added.
func (in *Injector) draw() (hang, delay, reject, fail bool, extra time.Duration, seq int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.profile
	in.seq++
	seq = in.seq
	hang = p.HangRate > 0 && in.rng.Float64() < p.HangRate
	delay = p.LatencyRate > 0 && in.rng.Float64() < p.LatencyRate
	reject = p.RejectRate > 0 && in.rng.Float64() < p.RejectRate
	fail = p.ErrorRate > 0 && in.rng.Float64() < p.ErrorRate
	if delay && p.LatencyJitter > 0 {
		extra = time.Duration(in.rng.Int63n(int64(p.LatencyJitter) + 1))
	}
	return
}

// ServeHTTP implements http.Handler. Health checks pass through
// unfaulted so orchestration probes stay honest about liveness. Batch
// invocations are faulted per sub-task: each frame draws its own fate,
// so a 429/500/hang can hit one task inside a batch while its
// batch-mates execute normally.
func (in *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		in.next.ServeHTTP(w, r)
		return
	}
	if _, batch, _ := SplitPath(r.URL.Path); batch && r.Method == http.MethodPost {
		in.serveBatch(w, r)
		return
	}
	hang, delay, reject, fail, extra, seq := in.draw()
	if delay && !hang {
		delay = in.admitDelay(seq, sniffTaskName(r))
	}
	if hang {
		in.hangs.Add(1)
		maxHang := in.profile.MaxHang
		if maxHang <= 0 {
			maxHang = 30 * time.Second
		}
		select {
		case <-r.Context().Done():
		case <-time.After(maxHang):
		}
		// Whoever is still listening gets a late 500 — a stalled pod
		// that eventually got reaped.
		http.Error(w, "wfbench: injected hang expired", http.StatusInternalServerError)
		return
	}
	if delay {
		in.delays.Add(1)
		select {
		case <-r.Context().Done():
			return
		case <-time.After(in.profile.Latency + extra):
		}
	}
	if reject {
		in.rejects.Add(1)
		if in.profile.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.FormatFloat(in.profile.RetryAfter, 'f', -1, 64))
		}
		http.Error(w, "wfbench: injected overload", http.StatusTooManyRequests)
		return
	}
	if fail {
		in.errors.Add(1)
		http.Error(w, "wfbench: injected fault", http.StatusInternalServerError)
		return
	}
	in.passed.Add(1)
	in.next.ServeHTTP(w, r)
}

// serveBatch faults a batch invocation frame by frame: every sub-task
// draws independently from the same seeded stream as single-task
// requests. Rejected (429) and failed (500) frames are answered by the
// injector; the surviving subset is re-framed and forwarded to the
// wrapped handler, and the sub-responses are merged back in request
// order. A hung sub-task holds the whole HTTP response — honest
// head-of-line blocking on a batched connection — until MaxHang or
// client abandon, after which its frame reports the late 500.
func (in *Injector) serveBatch(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBatchBody(r)
	var items []BatchItem
	if err == nil {
		items, err = DecodeBatchRequestBytes(body)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad batch: %v", err), http.StatusBadRequest)
		return
	}
	results := make([]BatchResult, len(items))
	forward := make([]BatchItem, 0, len(items))
	forwardIdx := make([]int, 0, len(items))
	var maxDelay time.Duration
	anyHang := false
	for i, it := range items {
		hang, delay, reject, fail, extra, seq := in.draw()
		if delay && !hang && !reject && !fail {
			delay = in.admitDelay(seq, taskNameOf(it.Body))
		}
		switch {
		case hang:
			in.hangs.Add(1)
			anyHang = true
			results[i] = BatchResult{Status: http.StatusInternalServerError,
				Payload: []byte("wfbench: injected hang expired")}
		case reject:
			in.rejects.Add(1)
			res := BatchResult{Status: http.StatusTooManyRequests,
				Payload: []byte("wfbench: injected overload")}
			if in.profile.RetryAfter > 0 {
				res.RetryAfterMillis = int64(in.profile.RetryAfter * 1000)
			}
			results[i] = res
		case fail:
			in.errors.Add(1)
			results[i] = BatchResult{Status: http.StatusInternalServerError,
				Payload: []byte("wfbench: injected fault")}
		default:
			if delay {
				in.delays.Add(1)
				if d := in.profile.Latency + extra; d > maxDelay {
					maxDelay = d
				}
			}
			in.passed.Add(1)
			forward = append(forward, it)
			forwardIdx = append(forwardIdx, i)
		}
	}
	if anyHang {
		maxHang := in.profile.MaxHang
		if maxHang <= 0 {
			maxHang = 30 * time.Second
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(maxHang):
		}
	}
	if maxDelay > 0 {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(maxDelay):
		}
	}
	if len(forward) > 0 {
		sub := EncodeBatchRequest(forward)
		req := r.Clone(r.Context())
		req.Body = io.NopCloser(bytes.NewReader(sub))
		req.ContentLength = int64(len(sub))
		rec := &batchRecorder{header: make(http.Header), status: http.StatusOK}
		in.next.ServeHTTP(rec, req)
		if rec.status != http.StatusOK {
			// The wrapped handler refused the whole batch: every forwarded
			// frame inherits that verdict, as a single-task POST would.
			var retryAfter int64
			if ra := rec.header.Get("Retry-After"); ra != "" {
				if secs, err := strconv.ParseFloat(ra, 64); err == nil && secs > 0 {
					retryAfter = int64(secs * 1000)
				}
			}
			msg := bytes.TrimSpace(rec.body.Bytes())
			for _, i := range forwardIdx {
				results[i] = BatchResult{Status: rec.status, RetryAfterMillis: retryAfter, Payload: msg}
			}
		} else {
			subResults, err := DecodeBatchResponse(&rec.body)
			if err != nil || len(subResults) != len(forward) {
				for _, i := range forwardIdx {
					results[i] = BatchResult{Status: http.StatusBadGateway,
						Payload: []byte("wfbench: injector: malformed upstream batch response")}
				}
			} else {
				for j, i := range forwardIdx {
					results[i] = subResults[j]
				}
			}
		}
	}
	WriteBatchResponse(w, results)
}

// batchRecorder captures the wrapped handler's response so the injector
// can merge fault frames back into it.
type batchRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *batchRecorder) Header() http.Header         { return r.header }
func (r *batchRecorder) WriteHeader(status int)      { r.status = status }
func (r *batchRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }
