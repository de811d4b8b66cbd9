package metrics

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden from this tree")

// TestHistogramExpositionGolden pins WriteProm's bytes on a fixed state,
// a family with HELP and one without, to a golden written before the
// histogram's exposition went through the shared family writer.
func TestHistogramExpositionGolden(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.00005, 0.003, 0.25, 3, 7200} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := h.WriteProm(&sb, "fixture_seconds", "A fixed histogram."); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteProm(&sb, "fixture_nohelp_seconds", ""); err != nil {
		t.Fatal(err)
	}
	checkExpositionGolden(t, sb.String())
}

func checkExpositionGolden(t *testing.T, got string) {
	t.Helper()
	const path = "testdata/exposition.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
