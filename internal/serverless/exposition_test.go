package serverless

import (
	"flag"
	"os"
	"strings"
	"testing"

	"wfserverless/internal/cluster"
	"wfserverless/internal/sharedfs"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden from this tree")

// TestPlatformExpositionGolden pins WriteMetrics' bytes on a fixed state,
// two idle services and a fixed latency histogram, to a golden written
// before the platform's exposition went through the shared family writer.
func TestPlatformExpositionGolden(t *testing.T) {
	p := startPlatform(t, fastOpts(cluster.PaperTestbed(), sharedfs.NewMem()))
	for _, name := range []string{"beta", "alpha"} {
		if err := p.Apply(ServiceConfig{Name: name, Workers: 1, CPURequestPerWorker: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []float64{0.002, 0.3} {
		p.latency.Observe(v)
	}
	var sb strings.Builder
	if err := p.WriteMetrics(&sb); err != nil {
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
