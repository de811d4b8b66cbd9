package health

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTrackerBaselines(t *testing.T) {
	tr := NewTracker(TrackerConfig{CheckInterval: time.Hour}) // watchdog inert
	defer tr.Close()
	for i := 0; i < 20; i++ {
		h := tr.StartAttempt("t", "ep1", 0)
		h.Done(false, i%4 == 0)
	}
	h := tr.StartAttempt("t-retry", "ep1", 1)
	h.Done(true, false)
	tr.RecordBatch("ep1", 8)
	tr.RecordBatch("ep1", 4)

	stats := tr.Snapshot()
	if len(stats) != 1 {
		t.Fatalf("endpoints = %d, want 1", len(stats))
	}
	e := stats[0]
	if e.Endpoint != "ep1" || e.Attempts != 21 || e.Failures != 1 || e.Retries != 1 {
		t.Fatalf("unexpected stats: %+v", e)
	}
	if e.ColdStarts != 5 {
		t.Fatalf("cold starts = %d, want 5", e.ColdStarts)
	}
	if got := e.BatchOccupancy(); got != 6 {
		t.Fatalf("batch occupancy = %v, want 6", got)
	}
	if e.P50 <= 0 || e.P95 < e.P50 {
		t.Fatalf("quantiles not populated: p50=%v p95=%v", e.P50, e.P95)
	}
}

func TestTrackerFlagsStragglers(t *testing.T) {
	var mu sync.Mutex
	var flagged, resolved []string
	tr := NewTracker(TrackerConfig{
		StragglerFactor: 3,
		// MinSamples equals the number of warm-up attempts, so none of
		// them can be flagged while in flight: a 2ms sleep stretched
		// past 3× the median on a loaded host would otherwise flag it.
		MinSamples:    10,
		CheckInterval: 2 * time.Millisecond,
		OnStraggler: func(s Straggler) {
			mu.Lock()
			flagged = append(flagged, s.Task)
			mu.Unlock()
		},
		OnResolved: func(s Straggler, lat time.Duration) {
			mu.Lock()
			resolved = append(resolved, s.Task)
			mu.Unlock()
		},
	})
	defer tr.Close()

	// Establish a ~2ms median.
	for i := 0; i < 10; i++ {
		h := tr.StartAttempt("fast", "ep", 0)
		time.Sleep(2 * time.Millisecond)
		h.Done(false, false)
	}
	slow := tr.StartAttempt("slow", "ep", 0)
	select {
	case <-slow.Flagged():
	case <-time.After(2 * time.Second):
		t.Fatal("straggler was not flagged")
	}
	slow.Done(false, false)
	mu.Lock()
	defer mu.Unlock()
	if len(flagged) != 1 || flagged[0] != "slow" {
		t.Fatalf("OnStraggler calls = %v, want [slow]", flagged)
	}
	if len(resolved) != 1 || resolved[0] != "slow" {
		t.Fatalf("OnResolved calls = %v, want [slow]", resolved)
	}
	stats := tr.Snapshot()
	if stats[0].Stragglers != 1 {
		t.Fatalf("endpoint straggler count = %d, want 1", stats[0].Stragglers)
	}
}

func TestTrackerNoFlagBeforeMinSamples(t *testing.T) {
	tr := NewTracker(TrackerConfig{MinSamples: 50, CheckInterval: time.Millisecond})
	defer tr.Close()
	for i := 0; i < 5; i++ {
		h := tr.StartAttempt("warm", "ep", 0)
		h.Done(false, false)
	}
	h := tr.StartAttempt("candidate", "ep", 0)
	select {
	case <-h.Flagged():
		t.Fatal("flagged before MinSamples completions")
	case <-time.After(30 * time.Millisecond):
	}
	h.Done(false, false)
}

func TestTrackerDoneIdempotent(t *testing.T) {
	tr := NewTracker(TrackerConfig{CheckInterval: time.Hour})
	defer tr.Close()
	h := tr.StartAttempt("t", "ep", 0)
	h.Done(false, false)
	h.Done(false, false) // second call must be a no-op
	if got := tr.Snapshot()[0].Attempts; got != 1 {
		t.Fatalf("attempts = %d after double Done, want 1", got)
	}
	var nilH *Inflight
	nilH.Done(false, false) // nil-safe
	nilH.SpeculativeWin()
}

func TestTrackerWriteMetrics(t *testing.T) {
	tr := NewTracker(TrackerConfig{CheckInterval: time.Hour})
	defer tr.Close()
	h := tr.StartAttempt("t", "http://a/wfbench", 0)
	h.Done(false, true)
	tr.SpeculationLaunched()
	var sb strings.Builder
	if err := tr.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, s := range []string{
		`wfm_endpoint_attempts_total{endpoint="http://a/wfbench"} 1`,
		`wfm_endpoint_cold_start_rate{endpoint="http://a/wfbench"} 1`,
		`wfm_endpoint_latency_p50_seconds{endpoint="http://a/wfbench"}`,
	} {
		if !strings.Contains(body, s) {
			t.Fatalf("metrics body missing %q:\n%s", s, body)
		}
	}
	var nilTr *Tracker
	if err := nilTr.WriteMetrics(&sb); err != nil {
		t.Fatalf("nil tracker WriteMetrics: %v", err)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(TrackerConfig{CheckInterval: time.Millisecond, MinSamples: 2})
	defer tr.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := tr.StartAttempt("t", "ep", i%3)
				if i%7 == 0 {
					time.Sleep(100 * time.Microsecond)
				}
				h.Done(i%5 == 0, i%2 == 0)
				tr.RecordBatch("ep", 4)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Snapshot()[0].Attempts; got != 8*200 {
		t.Fatalf("attempts = %d, want %d", got, 8*200)
	}
}
