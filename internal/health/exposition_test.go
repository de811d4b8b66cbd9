package health

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden from this tree")

// TestTrackerExpositionGolden pins WriteMetrics' bytes on a fixed
// per-endpoint table to a golden written before the tracker's exposition
// went through the shared family writer.
func TestTrackerExpositionGolden(t *testing.T) {
	tr := NewTracker(TrackerConfig{CheckInterval: time.Hour})
	defer tr.Close()
	for i, name := range []string{"http://b/wfbench", "http://a/wfbench"} {
		ep := tr.endpointFor(name)
		ep.attempts, ep.failures, ep.retries, ep.coldStarts = int64(10+i), int64(2+i), 3, 1
		ep.flushes, ep.batchTasks = 4, int64(10+i)
		for k := 1; k <= 12; k++ {
			v := float64(k*(i+1)) / 1000
			ep.p50.Observe(v)
			ep.p95.Observe(v)
			ep.p99.Observe(v)
		}
	}
	var sb strings.Builder
	if err := tr.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/exposition.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("exposition differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
