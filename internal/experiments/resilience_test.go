package experiments

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfm"
)

// TestResilienceSurvivesFaultyEndpoint is the campaign's acceptance
// experiment: an aggressive fault profile (error rate >= 0.3 plus
// latency spikes and overload rejections) must not fail a single task
// in either scheduling mode — the retry layer absorbs it, and the armed
// breaker stays closed. The faults are keyed by task and attempt, so
// both modes and a repeat run meet the same adversary: every task makes
// the same attempts and the injector deals the same faults.
func TestResilienceSurvivesFaultyEndpoint(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := ResilienceConfig{
		Recipe:    "blast",
		NumTasks:  40,
		TimeScale: 0.002,
		Profile: wfbench.FaultProfile{
			ErrorRate:     0.3,
			RejectRate:    0.05,
			RetryAfter:    0.005,
			LatencyRate:   0.2,
			Latency:       2 * time.Millisecond,
			LatencyJitter: 2 * time.Millisecond,
			Seed:          13,
		},
		Retries:      10,
		RetryBackoff: 0.5,
		TaskTimeout:  300,
		Breaker:      DefaultResilienceBreaker(), // armed but must not trip on this mix
	}
	ms, err := Resilience(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements, want one per scheduling mode", len(ms))
	}
	again, err := Resilience(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]bool{}
	for i, m := range append(ms, again...) {
		if !reflect.DeepEqual(m.TaskAttempts, ms[0].TaskAttempts) || m.Faults != ms[0].Faults {
			t.Fatalf("run %d (%s): attempts %v faults %+v, run 0 (%s): %v %+v",
				i, m.Scheduling, m.TaskAttempts, m.Faults, ms[0].Scheduling, ms[0].TaskAttempts, ms[0].Faults)
		}
		if len(m.Breakers) != 0 {
			t.Fatalf("%s: the breaker moved on a noisy endpoint: %+v", m.Scheduling, m.Breakers)
		}
		modes[m.Scheduling] = true
		if m.Failed != 0 {
			t.Fatalf("%s: %d tasks failed through the resilience layer", m.Scheduling, m.Failed)
		}
		if m.Faults.Errors == 0 {
			t.Fatalf("%s: injector fired no faults: %+v", m.Scheduling, m.Faults)
		}
		if m.Retries == 0 {
			t.Fatalf("%s: no retries recorded despite %d injected errors", m.Scheduling, m.Faults.Errors)
		}
		if m.Attempts != m.Tasks+m.Retries {
			t.Fatalf("%s: attempts %d != tasks %d + retries %d", m.Scheduling, m.Attempts, m.Tasks, m.Retries)
		}
	}
	if !modes["phases"] || !modes["dependency"] {
		t.Fatalf("modes covered: %v", modes)
	}

	var buf strings.Builder
	if err := WriteResilienceTable(&buf, ms); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dependency") || !strings.Contains(buf.String(), "phases") {
		t.Fatalf("table missing modes:\n%s", buf.String())
	}

	// Both experiment runs torn down: no lingering goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
}

// TestResilienceBreakerOpensOnDeadService: total outage with a hair
// trigger — the breaker must actually open and the error must surface.
func TestResilienceBreakerOpensOnDeadService(t *testing.T) {
	cfg := ResilienceConfig{
		Recipe:    "seismology",
		NumTasks:  20,
		TimeScale: 0.002,
		Profile:   wfbench.FaultProfile{ErrorRate: 1, Seed: 3},
		Retries:   2,
		Breaker: wfm.BreakerOptions{
			Enabled:          true,
			Window:           8,
			FailureThreshold: 0.5,
			MinSamples:       4,
			Cooldown:         1000,
		},
	}
	_, err := Resilience(context.Background(), cfg)
	if err == nil {
		t.Fatal("fully-dead endpoint reported success")
	}
}
