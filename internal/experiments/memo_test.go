package experiments

import (
	"context"
	"strings"
	"testing"

	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfm"
)

// TestMemoCampaignSmall drives the full four-variant sequence in both
// scheduling modes on a small workflow: exact edit closures and drive
// convergence on every row (the campaign's gates), a zero-invocation
// unchanged re-run, and strictly fewer invocations than tasks on the
// edit rows.
func TestMemoCampaignSmall(t *testing.T) {
	c, err := newMemo(Config{Tasks: 80, Width: 10, Edits: 4, Seed: 3})
	rows, out := runCampaign(t, c, err)
	if len(rows) != 8 { // 4 variants x 2 modes
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, m := range rows {
		switch m.Variant {
		case "cold":
			if m.Invoked != m.Tasks || m.Hits != 0 {
				t.Errorf("cold: invocations=%d hits=%d, want %d/0", m.Invoked, m.Hits, m.Tasks)
			}
		case "rerun":
			if m.Invoked != 0 || m.Hits != m.Tasks {
				t.Errorf("rerun: invocations=%d hits=%d, want 0/%d", m.Invoked, m.Hits, m.Tasks)
			}
			if m.SkippedBytes == 0 {
				t.Error("rerun skipped no output bytes")
			}
		case "edit1", "editk":
			if m.Invoked == 0 || m.Invoked >= m.Tasks {
				t.Errorf("%s: invocations=%d, want in (0, %d)", m.Variant, m.Invoked, m.Tasks)
			}
			if m.Hits+m.Invoked != m.Tasks {
				t.Errorf("%s: hits %d + invoked %d != tasks %d", m.Variant, m.Hits, m.Invoked, m.Tasks)
			}
		}
	}
	checkSeeded(t, "memo", []string{out}, len(rows))
}

// TestMemoCampaignBatched: memoization sits above the batching
// transport; the edit-scope invariants must hold through it unchanged.
func TestMemoCampaignBatched(t *testing.T) {
	c, err := newMemo(Config{Tasks: 60, Width: 8, Edits: 3, Seed: 5,
		Batching: wfm.BatchOptions{Enabled: true, MaxTasks: 16}})
	runCampaign(t, c, err)
}

// TestRecoveryWithMemoize: crash/resume with both the journal and the
// memo cache enabled — the zero-duplicate invariant extends to
// memoized tasks.
func TestRecoveryWithMemoize(t *testing.T) {
	c, err := newRecovery(Config{Tasks: 100, Width: 10, Trials: 1, Seed: 9, Memoize: true})
	runCampaign(t, c, err)
}

// TestResilienceMemoizedRerun: the warm re-run behind a fault injector
// is served wholly from the cache — memoization makes re-runs immune to
// endpoint flakiness.
func TestResilienceMemoizedRerun(t *testing.T) {
	c, err := newResilience(Config{
		Recipe:    "blast",
		Tasks:     30,
		TimeScale: 0.002,
		Faults:    wfbench.FaultProfile{ErrorRate: 0.2, Seed: 17},
		Memoize:   true,
	})
	if err == nil {
		c.opts.Retries, c.opts.Breaker = 10, wfm.BreakerOptions{}
	}
	rows, _ := runCampaign(t, c, err)
	for _, m := range rows {
		if m.Hits != m.Tasks || m.Misses != 0 {
			t.Errorf("%s: warm re-run hits=%d misses=%d, want %d/0", m.Mode, m.Hits, m.Misses, m.Tasks)
		}
	}
}

// TestWriteMemoTable renders a memo row through the campaign's column
// list.
func TestWriteMemoTable(t *testing.T) {
	c, err := newMemo(Config{Tasks: 20, Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.cells = []Cell{{Mode: wfm.ScheduleDependency, Variant: "edit1"}}
	c.measure = func(context.Context, Cell) (Row, error) {
		return Row{Tasks: 400, Edited: 1, Expected: 17, Invoked: 17, Hits: 383, Misses: 17,
			SkippedBytes: 383, Exact: true, DriveMatch: true}, nil
	}
	var sb strings.Builder
	if _, _, err := c.run(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"variant", "edit1", "driveMatch", "383"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
