package experiments

import (
	"strings"
	"testing"
)

// TestServiceCampaign is the CI-sized multi-run control-plane
// acceptance experiment: the full three phases (fairness/quota,
// backpressure, crash recovery) at default dimensions — small enough
// for CI, large enough for the contested-grant ratio to converge. The
// campaign's gates are the quota, fair-share, backpressure and
// recovery checks.
func TestServiceCampaign(t *testing.T) {
	c, err := newService(Config{})
	rows, out := runCampaign(t, c, err)
	for _, want := range []string{"fairness", "backpressure", "recovery", "[PASS]"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	checkSeeded(t, "service", []string{out}, len(rows))
}
