package wfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
)

// execFunc adapts a function to Executor.
type execFunc func(ctx context.Context, route string, req *Request) (*Response, error)

func (f execFunc) Invoke(ctx context.Context, route string, req *Request) (*Response, error) {
	return f(ctx, route, req)
}

// okExec answers every invocation with success.
var okExec = execFunc(func(_ context.Context, _ string, req *Request) (*Response, error) {
	return &Response{Name: req.Name, OK: true}, nil
})

func newInjector(t *testing.T, p FaultProfile) *Injector {
	t.Helper()
	inj, err := NewInjector(okExec, p)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// invoke sends one invocation of name through in and returns the status
// the function endpoint would answer it with.
func invoke(ctx context.Context, in Executor, name string) int {
	status, _ := statusOf(in.Invoke(ctx, "", &Request{Name: name}))
	return status
}

func TestInjectorValidation(t *testing.T) {
	bad := []FaultProfile{
		{ErrorRate: -0.1},
		{ErrorRate: 1.5},
		{RejectRate: 2},
		{LatencyRate: -1},
		{HangRate: 1.01},
		{RetryAfter: -1},
		{Latency: -time.Second},
	}
	for i, p := range bad {
		if _, err := NewInjector(okExec, p); err == nil {
			t.Fatalf("case %d: invalid profile accepted: %+v", i, p)
		}
	}
	if _, err := NewInjector(nil, FaultProfile{}); err == nil {
		t.Fatal("nil executor accepted")
	}
}

func TestInjectorZeroProfilePassesEverything(t *testing.T) {
	inj := newInjector(t, FaultProfile{})
	if (FaultProfile{}).Active() {
		t.Fatal("zero profile reports active")
	}
	for i := 0; i < 50; i++ {
		if status := invoke(context.Background(), inj, "t"); status != http.StatusOK {
			t.Fatalf("invocation %d: status %d", i, status)
		}
	}
	if s := inj.Stats(); s.Passed != 50 || s.Errors+s.Rejects+s.Hangs+s.Delays != 0 {
		t.Fatalf("stats = %+v, want 50 clean passes", s)
	}
}

func TestInjectorErrorRateIsTotal(t *testing.T) {
	inj := newInjector(t, FaultProfile{ErrorRate: 1, Seed: 3})
	if status := invoke(context.Background(), inj, "t"); status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", status)
	}
	if s := inj.Stats(); s.Errors != 1 || s.Passed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInjectorRejectSendsRetryAfter(t *testing.T) {
	inj := newInjector(t, FaultProfile{RejectRate: 1, RetryAfter: 0.25})
	rec := httptest.NewRecorder()
	NewEndpoint(inj).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/wfbench", strings.NewReader(`{"name":"t"}`)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "0.25" {
		t.Fatalf("Retry-After = %q, want 0.25", got)
	}
}

func TestInjectorLatencyDelaysButServes(t *testing.T) {
	inj := newInjector(t, FaultProfile{
		LatencyRate: 1,
		Latency:     20 * time.Millisecond,
		Seed:        5,
	})
	start := time.Now()
	if status := invoke(context.Background(), inj, "t"); status != http.StatusOK {
		t.Fatalf("status = %d, want 200 after delay", status)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("served after %v, want >= 20ms", elapsed)
	}
	if s := inj.Stats(); s.Delays != 1 || s.Passed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInjectorHangHoldsUntilClientGivesUp(t *testing.T) {
	inj := newInjector(t, FaultProfile{HangRate: 1, MaxHang: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	start := time.Now()
	go func() {
		invoke(ctx, inj, "t")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("hang did not release on client abandon")
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("hang released after %v, want >= client deadline", elapsed)
	}
	if s := inj.Stats(); s.Hangs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInjectorHangRespectsMaxHang(t *testing.T) {
	inj := newInjector(t, FaultProfile{HangRate: 1, MaxHang: 20 * time.Millisecond})
	start := time.Now()
	status := invoke(context.Background(), inj, "t")
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("hang lasted %v, want ~MaxHang", elapsed)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("expired hang answered %d, want 500", status)
	}
}

func TestInjectorHealthzBypassesFaults(t *testing.T) {
	inj := newInjector(t, FaultProfile{ErrorRate: 1, RejectRate: 1, HangRate: 1, MaxHang: time.Minute})
	rec := httptest.NewRecorder()
	NewEndpoint(inj).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz got %d through a fully-faulted injector", rec.Code)
	}
}

func TestInjectorRatesRoughlyHold(t *testing.T) {
	inj := newInjector(t, FaultProfile{ErrorRate: 0.3, Seed: 11})
	const n = 2000
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/8; j++ {
				invoke(context.Background(), inj, fmt.Sprintf("t%d", j%50))
			}
		}()
	}
	wg.Wait()
	s := inj.Stats()
	if s.Errors+s.Passed != n {
		t.Fatalf("accounting off: %+v", s)
	}
	rate := float64(s.Errors) / n
	if rate < 0.22 || rate > 0.38 {
		t.Fatalf("observed error rate %.3f, want ~0.3", rate)
	}
}

func TestInjectorDeterministicUnderSameSeed(t *testing.T) {
	outcomes := func(seed int64) string {
		inj := newInjector(t, FaultProfile{ErrorRate: 0.4, RejectRate: 0.2, Seed: seed})
		var b strings.Builder
		for i := 0; i < 100; i++ {
			b.WriteString(map[int]string{200: ".", 429: "r", 500: "e"}[invoke(context.Background(), inj, fmt.Sprintf("t%d", i%25))])
		}
		return b.String()
	}
	if outcomes(9) != outcomes(9) {
		t.Fatal("same seed produced different fault sequences")
	}
	if outcomes(9) == outcomes(10) {
		t.Fatal("different seeds produced identical fault sequences")
	}

	t.Run("order and wire", func(t *testing.T) {
		const names, attempts = 50, 4
		p := FaultProfile{ErrorRate: 0.3, RejectRate: 0.15, RetryAfter: 0.001, HangRate: 0.05,
			MaxHang: time.Millisecond, LatencyRate: 0.2, LatencyOnce: true, Seed: 21}
		type fates map[string][]int
		type way struct {
			fates   fates
			stats   FaultStats
			delayed []string
		}
		// run sends every name's attempts, in order, through send and
		// holds what came back against what reached the stub.
		run := func(send func(inj *Injector, order []string, note func(name string, status int))) way {
			stub := NewStub(sharedfs.NewMem(), 0)
			inj, err := NewInjector(stub, p)
			if err != nil {
				t.Fatal(err)
			}
			order := make([]string, names)
			for i := range order {
				order[i] = fmt.Sprintf("task_%08d", i)
			}
			rand.New(rand.NewSource(1)).Shuffle(names, func(i, j int) { order[i], order[j] = order[j], order[i] })
			w := way{fates: fates{}}
			var mu sync.Mutex
			send(inj, order, func(name string, status int) {
				mu.Lock()
				w.fates[name] = append(w.fates[name], status)
				mu.Unlock()
			})
			served := map[string]int{}
			for name, f := range w.fates {
				if n := len(f); n != attempts {
					t.Fatalf("%s: %d attempts noted, want %d", name, n, attempts)
				}
				for _, status := range f {
					if status == http.StatusOK {
						served[name]++
					}
				}
			}
			if counts := stub.Counts(); !reflect.DeepEqual(counts, served) {
				t.Fatalf("the stub ran %v, the answers say %v", counts, served)
			}
			w.stats, w.delayed = inj.Stats(), inj.DelayedNames()
			slices.Sort(w.delayed)
			return w
		}
		// concurrently runs each name's attempts in order, names spread
		// over eight goroutines.
		concurrently := func(order []string, one func(name string)) {
			work := make(chan string)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for name := range work {
						for k := 0; k < attempts; k++ {
							one(name)
						}
					}
				}()
			}
			for _, name := range order {
				work <- name
			}
			close(work)
			wg.Wait()
		}
		body := func(name string) []byte {
			b, err := json.Marshal(&Request{Name: name, Out: map[string]int64{name + ".out": 1}})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}

		inSequence := run(func(inj *Injector, order []string, note func(string, int)) {
			slices.Sort(order)
			for _, name := range order {
				for k := 0; k < attempts; k++ {
					note(name, invoke(context.Background(), inj, name))
				}
			}
		})
		ways := map[string]way{
			"shuffled over 8 goroutines": run(func(inj *Injector, order []string, note func(string, int)) {
				concurrently(order, func(name string) { note(name, invoke(context.Background(), inj, name)) })
			}),
			"single POSTs": run(func(inj *Injector, order []string, note func(string, int)) {
				h := NewEndpoint(inj)
				concurrently(order, func(name string) {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/wfbench", bytes.NewReader(body(name))))
					note(name, rec.Code)
				})
			}),
			"batch frames": run(func(inj *Injector, order []string, note func(string, int)) {
				h := NewEndpoint(inj)
				for k := 0; k < attempts; k++ {
					items := make([]BatchItem, len(order))
					for i, name := range order {
						items[i] = BatchItem{Body: body(name)}
					}
					for i, res := range postBatch(t, h, items) {
						note(order[i], res.Status)
					}
				}
			}),
		}
		if inSequence.stats.Errors == 0 || inSequence.stats.Rejects == 0 || inSequence.stats.Hangs == 0 || inSequence.stats.Delays == 0 {
			t.Fatalf("the profile dealt too few faults to tell: %+v", inSequence.stats)
		}
		for name, w := range ways {
			if !reflect.DeepEqual(w.fates, inSequence.fates) {
				t.Errorf("%s: per-name fates differ from the sequential run:\n%v\n%v", name, w.fates, inSequence.fates)
			}
			if w.stats != inSequence.stats || !slices.Equal(w.delayed, inSequence.delayed) {
				t.Errorf("%s: stats %+v delayed %v, sequential %+v %v", name, w.stats, w.delayed, inSequence.stats, inSequence.delayed)
			}
		}
	})
}

// TestInjectorLatencyAfter pins the baseline-first gate: the first N
// invocations pass undelayed even at LatencyRate 1, and the injector
// remembers which task names it actually delayed.
func TestInjectorLatencyAfter(t *testing.T) {
	inj := newInjector(t, FaultProfile{
		LatencyRate:  1,
		Latency:      15 * time.Millisecond,
		LatencyAfter: 3,
	})
	for i := 0; i < 3; i++ {
		start := time.Now()
		invoke(context.Background(), inj, "warm")
		if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
			t.Fatalf("invocation %d delayed by %v inside the LatencyAfter window", i, elapsed)
		}
	}
	start := time.Now()
	invoke(context.Background(), inj, "tail")
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("invocation 4 served in %v, want the injected delay", elapsed)
	}
	if s := inj.Stats(); s.Delays != 1 || s.Passed != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if got := inj.DelayedNames(); len(got) != 1 || got[0] != "tail" {
		t.Fatalf("DelayedNames = %v, want [tail]", got)
	}
}

// TestInjectorLatencyOnce pins the bad-placement model: a task name is
// delayed on first sight only, so its retry lands fast.
func TestInjectorLatencyOnce(t *testing.T) {
	inj := newInjector(t, FaultProfile{
		LatencyRate: 1,
		Latency:     15 * time.Millisecond,
		LatencyOnce: true,
	})
	serve := func(name string) time.Duration {
		start := time.Now()
		if status := invoke(context.Background(), inj, name); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		return time.Since(start)
	}
	if d := serve("f001"); d < 15*time.Millisecond {
		t.Fatalf("first f001 served in %v, want delayed", d)
	}
	if d := serve("f001"); d > 10*time.Millisecond {
		t.Fatalf("second f001 delayed %v, want fast retry path", d)
	}
	if d := serve("f002"); d < 15*time.Millisecond {
		t.Fatalf("first f002 served in %v, want delayed", d)
	}
	got := inj.DelayedNames()
	if len(got) != 2 || got[0] != "f001" || got[1] != "f002" {
		t.Fatalf("DelayedNames = %v, want [f001 f002] in order", got)
	}
}

// TestInjectorGatesPreserveDrawOrder: the latency gates decide nothing
// random, so configuring them leaves every other fault where it was.
func TestInjectorGatesPreserveDrawOrder(t *testing.T) {
	outcomes := func(p FaultProfile) []int {
		inj := newInjector(t, p)
		var codes []int
		for i := 0; i < 60; i++ {
			codes = append(codes, invoke(context.Background(), inj, "t"))
		}
		return codes
	}
	base := FaultProfile{ErrorRate: 0.3, RejectRate: 0.2, Seed: 11}
	gated := base
	gated.LatencyRate = 0 // gates configured but latency off: faults must match
	gated.LatencyAfter = 5
	gated.LatencyOnce = true
	a, b := outcomes(base), outcomes(gated)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("invocation %d: %d vs %d — gates perturbed the draws", i, a[i], b[i])
		}
	}
}
