package experiments

import (
	"context"
	"io"
	"testing"

	"wfserverless/internal/wfm"
)

// TestScaleSmall runs the scale campaign end-to-end at a size small
// enough for tier-1: every task completes (the campaign's gate), and
// throughput and RSS are reported.
func TestScaleSmall(t *testing.T) {
	var outs []string
	for _, shape := range []string{"random", "chain", "fanout"} {
		c, err := newScale(Config{Tasks: 300, Shape: shape, Scheduling: wfm.ScheduleDependency, Parallel: 32})
		rows, out := runCampaign(t, c, err)
		if rows[0].TasksPerSec <= 0 {
			t.Fatalf("%s: TasksPerSec = %v", shape, rows[0].TasksPerSec)
		}
		if shape != "fanout" && rows[0].Edges == 0 {
			t.Fatalf("%s: no edges", shape)
		}
		outs = append(outs, out)
	}
	checkSeeded(t, "scale", outs, 1)
}

// TestScalePhasesMode pins that the campaign also runs under the
// paper's phase-barrier mode.
func TestScalePhasesMode(t *testing.T) {
	c, err := newScale(Config{Tasks: 120, Shape: "random", Width: 16, Scheduling: wfm.SchedulePhases, Parallel: 32})
	runCampaign(t, c, err)
}

func TestScaleRejectsBadConfig(t *testing.T) {
	if _, err := newScale(Config{Tasks: 0}); err == nil {
		t.Fatal("Tasks=0 accepted")
	}
	c, err := newScale(Config{Tasks: 10, Shape: "mystery"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.run(context.Background(), io.Discard); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestPeakRSSOnLinux(t *testing.T) {
	if rss := PeakRSS(); rss <= 0 {
		t.Skip("procfs not available")
	}
}
