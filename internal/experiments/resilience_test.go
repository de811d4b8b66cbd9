package experiments

import (
	"context"
	"io"
	"reflect"
	"runtime"
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
	c, err := newResilience(Config{
		Recipe:    "blast",
		Tasks:     40,
		TimeScale: 0.002,
		Faults: wfbench.FaultProfile{
			ErrorRate:     0.3,
			RejectRate:    0.05,
			RetryAfter:    0.005,
			LatencyRate:   0.2,
			Latency:       2 * time.Millisecond,
			LatencyJitter: 2 * time.Millisecond,
			Seed:          13,
		},
	})
	if err == nil {
		// The breaker stays armed (DefaultResilienceBreaker) but must not
		// trip on this mix.
		c.opts.Retries, c.opts.RetryBackoff, c.opts.TaskTimeout = 10, 0.5, 300
	}
	ms, out := runCampaign(t, c, err)
	if len(ms) != 2 {
		t.Fatalf("got %d rows, want one per scheduling mode", len(ms))
	}
	again, _ := runCampaign(t, c, nil)
	modes := map[string]bool{}
	for i, m := range append(ms, again...) {
		if !reflect.DeepEqual(m.TaskAttempts, ms[0].TaskAttempts) || m.FaultStats != ms[0].FaultStats {
			t.Fatalf("run %d (%s): attempts %v faults %+v, run 0 (%s): %v %+v",
				i, m.Mode, m.TaskAttempts, m.FaultStats, ms[0].Mode, ms[0].TaskAttempts, ms[0].FaultStats)
		}
		if len(m.Breakers) != 0 {
			t.Fatalf("%s: the breaker moved on a noisy endpoint: %+v", m.Mode, m.Breakers)
		}
		modes[m.Mode.String()] = true
		if m.FaultStats.Errors == 0 {
			t.Fatalf("%s: injector fired no faults: %+v", m.Mode, m.FaultStats)
		}
		if m.Retries == 0 {
			t.Fatalf("%s: no retries recorded despite %d injected errors", m.Mode, m.FaultStats.Errors)
		}
		if m.Attempts != m.Tasks+m.Retries {
			t.Fatalf("%s: attempts %d != tasks %d + retries %d", m.Mode, m.Attempts, m.Tasks, m.Retries)
		}
	}
	if !modes["phases"] || !modes["dependency"] {
		t.Fatalf("modes covered: %v", modes)
	}
	checkSeeded(t, "resilience", []string{out}, len(ms))

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
	c, err := newResilience(Config{
		Recipe:    "seismology",
		Tasks:     20,
		TimeScale: 0.002,
		Faults:    wfbench.FaultProfile{ErrorRate: 1, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.opts.Retries = 2
	c.opts.Breaker = wfm.BreakerOptions{
		Enabled:          true,
		Window:           8,
		FailureThreshold: 0.5,
		MinSamples:       4,
		Cooldown:         1000,
	}
	if _, _, err := c.run(context.Background(), io.Discard); err == nil {
		t.Fatal("fully-dead endpoint reported success")
	}
}
