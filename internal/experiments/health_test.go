package experiments

import (
	"testing"
	"time"
)

// TestHealthCampaign is the acceptance run for the straggler campaign:
// every injected-slow task must be flagged, speculative retry must cut
// the makespan by at least 25% against the detection-off baseline, and
// the journal must hold exactly one terminal record per task despite
// the raced duplicate attempts (the campaign's gates) — in both
// scheduling modes.
func TestHealthCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock latency injection campaign")
	}
	c, err := newHealth(Config{Tasks: 16, Latency: 800 * time.Millisecond})
	rows, out := runCampaign(t, c, err)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want both scheduling modes", len(rows))
	}
	for i := range rows {
		m := &rows[i]
		t.Run(m.Mode.String(), func(t *testing.T) {
			if len(m.Injected) == 0 {
				t.Fatal("injector delayed nothing — campaign exercised no stragglers")
			}
			if m.SpeculativeRetries == 0 || m.SpeculativeWins == 0 {
				t.Fatalf("no speculation recorded: %+v", m)
			}
			if len(m.Endpoints) == 0 || m.Endpoints[0].Attempts == 0 {
				t.Fatalf("no endpoint baselines: %+v", m.Endpoints)
			}
		})
	}
	checkSeeded(t, "health", []string{out}, len(rows))
}
