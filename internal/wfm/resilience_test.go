package wfm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
)

// State returns the breaker's current state name.
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// --- backoff & Retry-After -------------------------------------------------

func TestRetryDelayFullJitterBounds(t *testing.T) {
	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.RetryBackoff = 1    // 1s base
		o.RetryBackoffMax = 8 // 8s cap
	})
	for attempt := 0; attempt < 10; attempt++ {
		ceiling := time.Duration(1<<uint(attempt)) * time.Second
		if ceiling > 8*time.Second {
			ceiling = 8 * time.Second
		}
		for i := 0; i < 50; i++ {
			d := m.retryDelay(attempt, 0)
			if d < 0 || d > ceiling {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, ceiling)
			}
		}
	}
}

func TestRetryDelayJitterVaries(t *testing.T) {
	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.RetryBackoff = 10
	})
	seen := make(map[time.Duration]bool)
	for i := 0; i < 64; i++ {
		seen[m.retryDelay(3, 0)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("jitter produced only %d distinct delays out of 64 draws", len(seen))
	}
}

func TestRetryDelayHonorsRetryAfter(t *testing.T) {
	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.RetryBackoff = 1
		o.RetryBackoffMax = 10
	})
	if got := m.retryDelay(0, 3*time.Second); got != 3*time.Second {
		t.Fatalf("Retry-After 3s -> %v, want exactly 3s", got)
	}
	// Server hints above the cap are clamped.
	if got := m.retryDelay(0, time.Hour); got != 10*time.Second {
		t.Fatalf("Retry-After 1h -> %v, want capped 10s", got)
	}
}

func TestRetryDelayZeroBaseKeepsRetriesImmediate(t *testing.T) {
	m := fastManager(t, sharedfs.NewMem(), nil) // RetryBackoff zero
	if got := m.retryDelay(5, 0); got != 0 {
		t.Fatalf("delay = %v, want 0 with no backoff configured", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"":                     0,
		"2":                    2 * time.Second,
		"0.25":                 250 * time.Millisecond,
		"-1":                   0,
		"Wed, 21 Oct 2015 ...": 0, // HTTP-date form unsupported: fall back to backoff
	} {
		if got := ParseRetryAfter(in); got != want {
			t.Fatalf("ParseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestRetryAfterHonoredEndToEnd: a 429 with a fractional Retry-After
// must delay the next attempt by at least that hint.
func TestRetryAfterHonoredEndToEnd(t *testing.T) {
	var calls atomic.Int64
	var firstRetryGap atomic.Int64
	var lastAttempt atomic.Int64 // UnixNano
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := lastAttempt.Swap(now); prev != 0 && firstRetryGap.Load() == 0 {
			firstRetryGap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(&wfbench.Response{Name: "x", OK: true})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.Retries = 2
		o.RetryBackoff = 0.001 // jittered backoff would be ~1ms; the hint must win
	})
	task := synthTask("ra", srv.URL, nil)
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	if _, attempts, err := m.invokeTask(context.Background(), task, rs); err != nil || attempts != 2 {
		t.Fatalf("invoke = attempts %d, err %v", attempts, err)
	}
	if gap := time.Duration(firstRetryGap.Load()); gap < 90*time.Millisecond {
		t.Fatalf("retry fired after %v, want >= ~100ms (Retry-After)", gap)
	}
}

// --- cancellation & task-timeout semantics ---------------------------------

// TestCancelDuringBackoffReturnsPromptly: a parent-context cancel in
// the middle of a long scheduled backoff must not sleep it out.
func TestCancelDuringBackoffReturnsPromptly(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30") // park the retry far away
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.Retries = 3
		o.RetryBackoff = 10
		o.RetryBackoffMax = 60
	})
	task := synthTask("cancelme", srv.URL, nil)
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := m.invokeTask(ctx, task, rs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v to surface, want prompt return", elapsed)
	}
}

// TestTaskTimeoutIsTerminal: when the task's own deadline expires the
// invocation stops with ErrTaskTimeout and no further retries, even
// though the failure class (5xx) is otherwise retriable.
func TestTaskTimeoutIsTerminal(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		// Drain the body so the server notices the client abandoning
		// the request, then stall past the task deadline.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		http.Error(w, "too late", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.Retries = 5
		o.TaskTimeout = 0.05 // 50ms budget for the whole task
	})
	task := synthTask("stalled", srv.URL, nil)
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	start := time.Now()
	_, attempts, err := m.invokeTask(context.Background(), task, rs)
	if !errors.Is(err, ErrTaskTimeout) {
		t.Fatalf("err = %v, want ErrTaskTimeout", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (timeout must not be retried)", attempts)
	}
	if calls.Load() != 1 {
		t.Fatalf("server calls = %d, want 1", calls.Load())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("task timeout surfaced after %v, want ~50ms", elapsed)
	}
}

// TestParentCancelBeatsTaskTimeout: when the parent context is
// cancelled the error must be ctx.Err(), not ErrTaskTimeout, even with
// a task deadline configured — the run was cancelled, the task did not
// time out.
func TestParentCancelBeatsTaskTimeout(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.Retries = 2
		o.TaskTimeout = 30
	})
	task := synthTask("cancelled", srv.URL, nil)
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := m.invokeTask(ctx, task, rs)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrTaskTimeout) {
		t.Fatalf("err = %v, want context.Canceled and not ErrTaskTimeout", err)
	}
}

// TestTaskTimeoutDuringBackoff: the task deadline expiring while the
// layer sleeps between attempts is terminal too.
func TestTaskTimeoutDuringBackoff(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.Retries = 3
		o.RetryBackoff = 10
		o.RetryBackoffMax = 60
		o.TaskTimeout = 0.05
	})
	task := synthTask("bo", srv.URL, nil)
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	start := time.Now()
	_, _, err := m.invokeTask(context.Background(), task, rs)
	if !errors.Is(err, ErrTaskTimeout) {
		t.Fatalf("err = %v, want ErrTaskTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline surfaced after %v, want ~50ms", elapsed)
	}
}

// --- circuit breaker -------------------------------------------------------

func breakerManager(t *testing.T, mutate func(*Options)) *Manager {
	t.Helper()
	return fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.Breaker = BreakerOptions{
			Enabled:          true,
			Window:           10,
			FailureThreshold: 0.5,
			MinSamples:       4,
			Cooldown:         0.05, // 50ms
		}
		if mutate != nil {
			mutate(o)
		}
	})
}

func TestBreakerOpensAtThresholdAndRecovers(t *testing.T) {
	m := breakerManager(t, nil)
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	br := rs.breakerFor("http://ep")

	// Four straight failures: rate 1.0 over >= MinSamples -> open.
	for i := 0; i < 4; i++ {
		if ok, _ := br.allow(); !ok {
			t.Fatalf("attempt %d rejected while closed", i)
		}
		br.record(outcomeFailure)
	}
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("state = %s, want open", got)
	}
	if ok, wait := br.allow(); ok || wait <= 0 {
		t.Fatalf("open breaker admitted an attempt (ok=%v wait=%v)", ok, wait)
	}

	// After the cooldown a single probe is admitted; concurrent
	// attempts stay shed.
	time.Sleep(60 * time.Millisecond)
	if ok, _ := br.allow(); !ok {
		t.Fatal("half-open breaker refused the probe")
	}
	if got := br.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", got)
	}
	if ok, _ := br.allow(); ok {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	br.record(outcomeSuccess)
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", got)
	}

	transitions := rs.take()
	var seq []string
	for _, tr := range transitions {
		seq = append(seq, tr.From+">"+tr.To)
	}
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if strings.Join(seq, " ") != strings.Join(want, " ") {
		t.Fatalf("transitions = %v, want %v", seq, want)
	}
	if transitions[0].FailureRate < 0.5 {
		t.Fatalf("opening transition failure rate = %v, want >= threshold", transitions[0].FailureRate)
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	m := breakerManager(t, nil)
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	br := rs.breakerFor("http://ep")
	for i := 0; i < 4; i++ {
		br.allow()
		br.record(outcomeFailure)
	}
	time.Sleep(60 * time.Millisecond)
	if ok, _ := br.allow(); !ok {
		t.Fatal("probe refused")
	}
	br.record(outcomeFailure)
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open", got)
	}
}

func TestBreakerIgnoresClientSideFailures(t *testing.T) {
	m := breakerManager(t, nil)
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	br := rs.breakerFor("http://ep")
	// Aborted and success outcomes never open the breaker.
	for i := 0; i < 20; i++ {
		br.allow()
		br.record(outcomeAborted)
	}
	for i := 0; i < 20; i++ {
		br.allow()
		br.record(outcomeSuccess)
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("state = %s, want closed", got)
	}
	if trs := rs.take(); len(trs) != 0 {
		t.Fatalf("transitions = %v, want none", trs)
	}
}

func TestBreakerSlidingWindowEvictsOldFailures(t *testing.T) {
	m := breakerManager(t, func(o *Options) {
		o.Breaker.Window = 4
		o.Breaker.MinSamples = 4
		o.Breaker.FailureThreshold = 0.75
	})
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	br := rs.breakerFor("http://ep")
	// Two failures then a long run of successes: the failures age out
	// of the 4-slot window, so the breaker must stay closed.
	br.allow()
	br.record(outcomeFailure)
	br.allow()
	br.record(outcomeFailure)
	for i := 0; i < 8; i++ {
		br.allow()
		br.record(outcomeSuccess)
	}
	br.allow()
	br.record(outcomeFailure)
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("state = %s, want closed (window evicted old failures)", got)
	}
}

// TestBreakerShedsLoadOnDeadEndpoint: with the breaker on, a dead
// endpoint must absorb far fewer HTTP attempts than Retries × tasks.
func TestBreakerShedsLoadOnDeadEndpoint(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "dead", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	drive := sharedfs.NewMem()
	m := fastManager(t, drive, func(o *Options) {
		o.ContinueOnError = true
		o.Retries = 5
		o.Breaker = BreakerOptions{
			Enabled:          true,
			Window:           8,
			FailureThreshold: 0.5,
			MinSamples:       4,
			Cooldown:         1000, // never half-opens within the test
		}
	})
	w := translated(t, "seismology", 40, srv.URL)
	res, err := m.Run(context.Background(), w)
	if err == nil {
		t.Fatal("dead endpoint reported success")
	}
	// Without the breaker this run issues (Retries+1) × tasks ≈ 240+
	// attempts; the breaker must cut that hard once it opens.
	budget := int64(w.Len() * 3)
	if got := calls.Load(); got > budget {
		t.Fatalf("dead endpoint absorbed %d HTTP attempts, want <= %d (load shedding)", got, budget)
	}
	if len(res.Breakers) == 0 || res.Breakers[0].To != BreakerOpen {
		t.Fatalf("breaker transitions = %+v, want an opening transition", res.Breakers)
	}
	for _, name := range res.Failed {
		tr := res.Tasks[name]
		if tr.Err != nil && errors.Is(tr.Err, ErrCircuitOpen) {
			return // at least one task was shed by the breaker
		}
	}
	t.Fatal("no task error carries ErrCircuitOpen")
}

// TestBreakerTransitionsVisibleInTrace runs a deterministic
// fail-then-heal endpoint in both scheduling modes and checks the full
// open -> half-open -> closed cycle lands in the Result and the trace.
func TestBreakerTransitionsVisibleInTrace(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		drive := sharedfs.NewMem()
		var calls atomic.Int64
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req wfbench.Request
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			// The first six requests fail hard (opening the
			// breaker), then the endpoint heals for good.
			if calls.Add(1) <= 6 {
				http.Error(w, "warming up", http.StatusInternalServerError)
				return
			}
			for name, size := range req.Out {
				drive.WriteFile(name, size)
			}
			json.NewEncoder(w).Encode(&wfbench.Response{Name: req.Name, OK: true})
		})
		srv := httptest.NewServer(h)
		defer srv.Close()

		m := fastManager(t, drive, func(o *Options) {
			o.Scheduling = mode
			o.TimeScale = 1
			o.PhaseDelay = 0.001
			o.InputWait = 2
			o.Retries = 30
			o.RetryBackoff = 0.001
			o.RetryBackoffMax = 0.05
			o.Breaker = BreakerOptions{
				Enabled:          true,
				Window:           6,
				FailureThreshold: 0.5,
				MinSamples:       3,
				Cooldown:         0.02,
			}
		})
		w := translated(t, "blast", 8, srv.URL)
		res, err := m.Run(context.Background(), w)
		if err != nil {
			t.Fatalf("run did not recover through the breaker: %v", err)
		}
		var opened, halfOpened, closed bool
		for _, bt := range res.Breakers {
			switch bt.To {
			case BreakerOpen:
				opened = true
			case BreakerHalfOpen:
				halfOpened = true
			case BreakerClosed:
				closed = true
			}
		}
		if !opened || !halfOpened || !closed {
			t.Fatalf("transitions %+v missing a state (open=%v half=%v closed=%v)",
				res.Breakers, opened, halfOpened, closed)
		}
		trace := TraceOf(res)
		if len(trace.Breakers) != len(res.Breakers) {
			t.Fatalf("trace has %d breaker events, result %d", len(trace.Breakers), len(res.Breakers))
		}
		var retried bool
		for _, ev := range trace.Events {
			if ev.Attempts > 1 {
				retried = true
			}
		}
		if !retried {
			t.Fatal("no trace event records retries despite injected failures")
		}
	})
}

// --- pooled request buffer regression --------------------------------------

// earlyResponder is an http.RoundTripper exercising the documented
// transport contract that broke the old pooled-buffer handling: "the
// Request's Body ... may be closed asynchronously after RoundTrip
// returns". It reads a prefix of the request body, hands back the
// response immediately, and only later — on a background goroutine —
// drains the rest, verifies the body still decodes as the request named
// in the URL, and closes it. The real transport behaves this way when a
// server responds before consuming the upload.
type earlyResponder struct {
	mu         sync.Mutex
	mismatches []string
	wg         sync.WaitGroup
}

func (tr *earlyResponder) flag(format string, args ...any) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.mismatches = append(tr.mismatches, fmt.Sprintf(format, args...))
}

func (tr *earlyResponder) RoundTrip(req *http.Request) (*http.Response, error) {
	want := strings.TrimPrefix(req.URL.Path, "/task/")
	head := make([]byte, 4096)
	n, err := io.ReadFull(req.Body, head)
	if err != nil {
		return nil, err
	}
	tr.wg.Add(1)
	go func() {
		defer tr.wg.Done()
		defer req.Body.Close() // the transport's async close: only now may the buffer be recycled
		time.Sleep(2 * time.Millisecond)
		// Drained as a transport may: a byte, less than a token, a full
		// write buffer at a time.
		var rest []byte
		for i, sizes := 0, []int{1, 7, 64 << 10}; ; i++ {
			buf := make([]byte, sizes[i%len(sizes)])
			n, err := req.Body.Read(buf)
			rest = append(rest, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				tr.flag("%s: drain body: %v", want, err)
				return
			}
		}
		var wreq wfbench.Request
		if err := json.Unmarshal(append(head[:n:n], rest...), &wreq); err != nil {
			tr.flag("%s: body corrupted mid-flight: %v", want, err)
			return
		}
		if wreq.Name != want {
			tr.flag("%s: body now carries request %q", want, wreq.Name)
		}
	}()
	respJSON, _ := json.Marshal(&wfbench.Response{Name: want, OK: true})
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     make(http.Header),
		Body:       io.NopCloser(bytes.NewReader(respJSON)),
	}, nil
}

// TestPooledBufferSurvivesEarlyResponse reproduces the request-buffer
// race: when the (real or simulated) transport returns from Do while
// the request body is still being consumed, recycling the pooled encode
// buffer at Do-return lets the next invocation scribble over bytes
// still on their way to the wire. The pool must only get the buffer
// back once the transport closes the body. Run under -race: the decode
// check below catches the corruption, the race detector the unsynchron-
// ized access.
func TestPooledBufferSurvivesEarlyResponse(t *testing.T) {
	// Bodies must outgrow the prefix the responder reads up front so a
	// recycled buffer has bytes left in flight.
	filler := make([]string, 4096)
	for i := range filler {
		filler[i] = fmt.Sprintf("input_file_%08d_abcdefghijklmnopqrstuvwxyz.dat", i)
	}

	tr := &earlyResponder{}
	m := fastManager(t, sharedfs.NewMem(), func(o *Options) {
		o.TimeScale = 1
		o.Client = &http.Client{Transport: tr}
	})
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{})
	// Back-to-back invocations on one goroutine: with eager recycling
	// the pool hands invocation i+1 the exact buffer invocation i is
	// still uploading from.
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("task-%02d", i)
		task := synthTask(name, "http://fake/task/"+name, filler)
		if _, _, err := m.invokeTask(context.Background(), task, rs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	tr.wg.Wait()
	if len(tr.mismatches) != 0 {
		t.Fatalf("in-flight request bodies corrupted by buffer reuse:\n%s",
			strings.Join(tr.mismatches, "\n"))
	}
}

// --- fault-injection end-to-end + goroutine accounting ---------------------

// TestRunSurvivesInjectedFaultsBothModes drives a workflow through an
// endpoint injecting 500s, 429s, and latency spikes (error rate ≥ 0.3)
// and requires both scheduling modes to complete via retries with the
// breaker armed — and to leak no goroutines.
func TestRunSurvivesInjectedFaultsBothModes(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, mode Scheduling) {
		before := runtime.NumGoroutine()
		drive := sharedfs.NewMem()
		bench, err := wfbench.New(wfbench.Config{Drive: drive, TimeScale: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := wfbench.NewService(bench, 16)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := wfbench.NewInjector(svc, wfbench.FaultProfile{
			ErrorRate:     0.25,
			RejectRate:    0.1,
			RetryAfter:    0.005,
			LatencyRate:   0.2,
			Latency:       3 * time.Millisecond,
			LatencyJitter: 2 * time.Millisecond,
			Seed:          7,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(inj)
		defer srv.Close()

		m := fastManager(t, drive, func(o *Options) {
			o.Scheduling = mode
			o.Retries = 10
			o.RetryBackoff = 0.5
			o.RetryBackoffMax = 4
			o.TaskTimeout = 120
			o.Breaker = BreakerOptions{
				Enabled:          true,
				FailureThreshold: 0.95, // armed, but the fault mix must not trip it
				MinSamples:       10,
			}
		})
		w := translated(t, "blast", 24, srv.URL)
		res, err := m.Run(context.Background(), w)
		if err != nil {
			t.Fatalf("run did not survive injected faults: %v", err)
		}
		if len(res.Failed) != 0 {
			t.Fatalf("failed tasks: %v", res.Failed)
		}
		stats := inj.Stats()
		if stats.Errors == 0 && stats.Rejects == 0 {
			t.Fatalf("injector fired no faults: %+v", stats)
		}
		var attempts int
		for name, tr := range res.Tasks {
			if name == HeaderName || name == TailName {
				continue
			}
			attempts += tr.Attempts
		}
		if attempts <= w.Len() {
			t.Fatalf("attempts = %d, want > %d (retries must have happened)", attempts, w.Len())
		}

		// Tear down the endpoint, then require the run to have left
		// no goroutines behind (workers, retry timers, watch
		// subscriptions). The explicit close also reaps keep-alive
		// connection handlers so only wfm leaks would remain.
		srv.Close()
		svc.Close()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines: before=%d now=%d\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	})
}

// TestContinueOnErrorRecordsInputWarning: inputs are awaited per task,
// under either rule. A function whose inputs never reach the drive fails
// as that function with "inputs missing" — it is not invoked anyway, the
// run is not aborted as "phase N", and no run-level warning stands in
// for the failure; ContinueOnError only decides whether its unrelated
// siblings still run.
func TestContinueOnErrorRecordsInputWarning(t *testing.T) {
	forEachScheduling(t, func(t *testing.T, s Scheduling) {
		for _, cont := range []bool{false, true} {
			drive := sharedfs.NewMem()
			var served sync.Map // function name -> true
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req wfbench.Request
				json.NewDecoder(r.Body).Decode(&req)
				served.Store(req.Name, true)
				// The root "succeeds" without writing its outputs, so its
				// children's inputs never reach the drive.
				if !strings.HasPrefix(req.Name, "split_fasta") {
					for name, size := range req.Out {
						drive.WriteFile(name, size)
					}
				}
				json.NewEncoder(w).Encode(&wfbench.Response{Name: req.Name, OK: true})
			}))
			m := fastManager(t, drive, func(o *Options) {
				o.Scheduling = s
				o.ContinueOnError = cont
				o.InputWait = 0.2
			})
			w := translated(t, "blast", 8, srv.URL)
			res, err := m.Run(context.Background(), w)
			srv.Close()
			if err == nil || !strings.Contains(err.Error(), "function(s) failed") {
				t.Fatalf("continue=%v: err = %v, want the loop's failed-functions error", cont, err)
			}
			if len(res.Warnings) != 0 {
				t.Fatalf("continue=%v: warnings = %v, want the failure on the task instead", cont, res.Warnings)
			}
			missing, children := 0, 0
			for name, tr := range res.Tasks {
				if strings.HasPrefix(name, "blastall") {
					children++
				}
				if _, ok := served.Load(name); ok != (tr.Err == nil) && name != HeaderName && name != TailName {
					t.Fatalf("continue=%v: %s served=%v but err = %v", cont, name, ok, tr.Err)
				}
				if tr.Err != nil && strings.Contains(tr.Err.Error(), "inputs missing") {
					missing++
				}
			}
			// Fail-fast stops at the first child to give up; pressing on,
			// every blastall child fails its own wait.
			if missing == 0 || (cont && missing != children) {
				t.Fatalf("continue=%v: %d of %d children failed with inputs missing", cont, missing, children)
			}
		}
	})
}

// TestNewRejectsBadResilienceOptions covers option validation.
func TestNewRejectsBadResilienceOptions(t *testing.T) {
	drive := sharedfs.NewMem()
	bad := []Options{
		{Drive: drive, Retries: -1},
		{Drive: drive, RetryBackoff: -1},
		{Drive: drive, RetryBackoffMax: -0.5},
		{Drive: drive, TaskTimeout: -2},
		{Drive: drive, Breaker: BreakerOptions{Enabled: true, FailureThreshold: 1.5}},
		{Drive: drive, Breaker: BreakerOptions{Enabled: true, Window: -1}},
		{Drive: drive, Breaker: BreakerOptions{Enabled: true, Cooldown: -1}},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Fatalf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}
