package experiments

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCampaign runs c and fails the test on an error or a failed gate.
// It returns the rows and what the driver wrote.
func runCampaign(t *testing.T, c *campaign, err error) ([]Row, string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	rows, failed, err := c.run(context.Background(), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failed {
		t.Errorf("gate failed: %s\n%s", f, out.String())
	}
	return rows, out.String()
}

// checkSeeded compares the columns testdata/<name>.golden names, as the
// tables in outs (nrows rows each) render them, with the golden. The
// golden pins the columns the seed alone decides: two runs of the
// release before the campaigns shared one harness agreed on them, and
// the file was recorded from that release. Never regenerate it.
func checkSeeded(t *testing.T, name string, outs []string, nrows int) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(strings.SplitN(string(want), "\n", 2)[0])
	got := strings.Join(names, " ") + "\n"
	for _, out := range outs {
		lines := strings.Split(out, "\n") // the title, the header, the rows
		if len(lines) < 2+nrows {
			t.Fatalf("%s: %d rows wanted in\n%s", name, nrows, out)
		}
		col := map[string]int{}
		for i, h := range strings.Fields(lines[1]) {
			col[h] = i
		}
		for _, line := range lines[2 : 2+nrows] {
			fields := strings.Fields(line)
			cells := make([]string, len(names))
			for j, n := range names {
				i, ok := col[n]
				if !ok || len(fields) != len(col) {
					t.Fatalf("%s: no column %q in\n%s", name, n, out)
				}
				cells[j] = fields[i]
			}
			got += strings.Join(cells, " ") + "\n"
		}
	}
	if got != string(want) {
		t.Errorf("%s: seed-determined columns changed:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestGatesCatchPlantedViolations feeds every gate of every campaign,
// through the driver, rows that pass all gates but one planted
// violation, and wants that gate's failure back and no other.
func TestGatesCatchPlantedViolations(t *testing.T) {
	plants := map[string]func(*Row){
		noDuplicates.name:                                                 func(r *Row) { r.Dups = 1 },
		driveMatches.name:                                                 func(r *Row) { r.DriveMatch = false },
		invokedSet.name:                                                   func(r *Row) { r.Exact = false },
		memoHits.name:                                                     func(r *Row) { r.Hits-- },
		"every injected straggler flagged":                                func(r *Row) { r.Injected = append(r.Injected, "late") },
		"journal holds one terminal record per task":                      func(r *Row) { r.TerminalRecords++ },
		"speculation cuts the makespan by >= 25%":                         func(r *Row) { r.ImprovementPct = 10 },
		"no task failed through the resilience layer":                     func(r *Row) { r.Failed = 1 },
		"every task completed":                                            func(r *Row) { r.Completed-- },
		"per-tenant concurrent-run quota never exceeded":                  func(r *Row) { r.Highwater[1] = r.Quota + 1 },
		"fair-share dispatch ratio within 15% of weights":                 func(r *Row) { r.Ratio = 1 },
		"queue overflow rejected with 429 + Retry-After, retries drained": func(r *Row) { r.Rejected = 0 },
		"restart resumed every run":                                       func(r *Row) { r.Resumed = 0 },
	}
	good := func(cl Cell) Row {
		return Row{
			Cell: cl, Tasks: 10, DriveMatch: true, Exact: true, Hits: 10, Completed: 10,
			ImprovementPct: 50, Injected: []string{"t1"}, Flagged: []string{"t1"},
			JournalCompleted: 10, TerminalRecords: 10,
			Runs: 4, Succeeded: 4, Resumed: 4, Recorded: 1, Quota: 2, Highwater: [2]int{2, 2},
			Grants: [2]int64{30, 10}, Ratio: 3, Target: 3, Rejected: 1, RetryAfter: "1",
		}
	}
	for suite, build := range campaigns {
		c, err := build(Config{Tasks: 20, Width: 4, Trials: 1, Memoize: true})
		if err != nil {
			t.Fatalf("%s: %v", suite, err)
		}
		var plant func(*Row)
		c.measure = func(_ context.Context, cl Cell) (Row, error) {
			r := good(cl)
			if plant != nil {
				plant(&r)
			}
			return r, nil
		}
		if _, failed, err := c.run(context.Background(), io.Discard); err != nil || len(failed) > 0 {
			t.Fatalf("%s: a clean row failed: %v %v", suite, err, failed)
		}
		for _, g := range c.gates {
			if plant = plants[g.name]; plant == nil {
				t.Errorf("%s: gate %q has no planted violation", suite, g.name)
				continue
			}
			_, failed, err := c.run(context.Background(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(failed) == 0 {
				t.Errorf("%s: gate %q passed a planted violation", suite, g.name)
			}
			for _, f := range failed {
				if !strings.HasPrefix(f, g.name+": ") {
					t.Errorf("%s: planting %q failed another gate: %s", suite, g.name, f)
				}
			}
		}
	}
}
