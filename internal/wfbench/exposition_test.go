package wfbench

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden from this tree")

// TestServiceExpositionGolden pins WriteMetrics' bytes on a fixed state
// to a golden written before the service's exposition went through the
// shared family writer.
func TestServiceExpositionGolden(t *testing.T) {
	s := &Service{nWorkers: 4}
	s.requests.Store(1234567)
	s.active.Store(2)
	s.failures.Store(3)
	for _, v := range []float64{0.0004, 0.012, 1.5} {
		s.latency.Observe(v)
	}
	var sb strings.Builder
	if err := s.WriteMetrics(&sb); err != nil {
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
