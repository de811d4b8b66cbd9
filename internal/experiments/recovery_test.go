package experiments

import (
	"testing"
)

// TestRecoveryCampaign is the CI-sized version of the crash/resume
// acceptance experiment: small workflow, one randomized crash point per
// cell, all four {scheduling} x {faults} cells. Every trial must
// converge to the reference drive state with zero duplicate invocations
// of journal-recorded tasks (the campaign's gates).
func TestRecoveryCampaign(t *testing.T) {
	c, err := newRecovery(Config{Tasks: 60, Width: 12, Trials: 1, Seed: 11})
	rows, out := runCampaign(t, c, err)
	if want := 4; len(rows) != want {
		t.Fatalf("got %d trials, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Recorded == 0 {
			t.Errorf("%s: journal recorded no completions before a crash at %d", r.Cell, r.CrashAfter)
		}
	}
	checkSeeded(t, "recovery", []string{out}, len(rows))
}
