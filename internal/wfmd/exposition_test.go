package wfmd

import (
	"flag"
	"os"
	"strings"
	"testing"

	"wfserverless/internal/sharedfs"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden from this tree")

// TestServerExpositionGolden pins WriteMetrics' bytes on a fixed state,
// two registered tenants and a terminal-run tally, to a golden written
// before the service's exposition went through the shared family writer.
func TestServerExpositionGolden(t *testing.T) {
	cfg := testConfig(t, sharedfs.NewMem())
	cfg.Tenants = []TenantConfig{{Name: "team-b", Weight: 1}, {Name: "team-a", Weight: 3}}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	srv.mu.Lock()
	srv.completed["team-a"] = map[string]int64{StateSucceeded: 3, StateFailed: 1}
	srv.completed["team-b"] = map[string]int64{StateCancelled: 2}
	srv.mu.Unlock()
	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
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
