package experiments

import (
	"context"
	"strings"
	"testing"

	"wfserverless/internal/wfbench"
)

// TestEveryParadigmExecutes runs one small workflow through all nine
// Table II paradigms end to end — the smoke version of the full
// 140-experiment campaign.
func TestEveryParadigmExecutes(t *testing.T) {
	inst := mustGen(t, "bwa", 25)
	for _, spec := range All() {
		spec := spec
		t.Run(string(spec.ID), func(t *testing.T) {
			// One POST per task, then framed /invoke-batch POSTs: every
			// paradigm's endpoint, the baseline's included, speaks both.
			for _, batch := range []bool{false, true} {
				tn := fastTunables()
				tn.Manager.Batching.Enabled = batch
				m, err := RunWorkflow(context.Background(), spec, inst.Workflow, tn)
				if err != nil {
					t.Fatalf("%s (batch %t): %v", spec.ID, batch, err)
				}
				if m.Requests != int64(inst.Workflow.Len()) {
					t.Fatalf("%s (batch %t) served %d of %d", spec.ID, batch, m.Requests, inst.Workflow.Len())
				}
				if m.Failures != 0 {
					t.Fatalf("%s (batch %t) failures = %d", spec.ID, batch, m.Failures)
				}
				if m.MakespanS <= 0 || m.MeanPowerW <= 0 || m.MeanCPUCores <= 0 {
					t.Fatalf("%s (batch %t) degenerate measurement: %+v", spec.ID, batch, m)
				}
				// Coarse paradigms must not autoscale.
				if spec.Coarse && m.ColdStarts > 1 {
					t.Fatalf("%s (batch %t) cold starts = %d", spec.ID, batch, m.ColdStarts)
				}
				// Fine serverless must scale from zero.
				if spec.Kind == KindKnative && !spec.Coarse && m.ColdStarts == 0 {
					t.Fatalf("%s (batch %t) recorded no cold starts", spec.ID, batch)
				}
			}
		})
	}
}

// TestBurnEngineEndToEnd runs a small workflow with the real busy-spin
// engine through the whole pipeline — platform, WFM, telemetry — to
// confirm nothing depends on the simulated engine.
func TestBurnEngineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("burn engine e2e skipped in -short")
	}
	tn := fastTunables()
	tn.Platform.Engine = wfbench.BurnEngine{}
	spec, _ := ByID(Kn10wNoPM)
	inst := mustGen(t, "seismology", 10)
	tb, err := NewTestbed(spec, tn)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	res, err := tb.Run(context.Background(), inst.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan with burn engine")
	}
}

// TestFigureSuitesSmoke runs every figure suite at tiny sizes.
func TestFigureSuitesSmoke(t *testing.T) {
	tn := fastTunables()
	sz := Sizes{Small: 15, Large: 25, Huge: 35}
	for name, f := range map[string]func(context.Context, Sizes, int64, Tunables) (*Suite, error){
		"fig4": Figure4, "fig5": Figure5, "fig6": Figure6, "fig7": Figure7,
	} {
		s, err := f(context.Background(), sz, 1, tn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Errors) > 0 {
			t.Fatalf("%s incomplete cells: %v", name, s.Errors)
		}
		if len(s.Measurements) == 0 {
			t.Fatalf("%s produced nothing", name)
		}
		var tbl strings.Builder
		if err := WriteTable(&tbl, s); err != nil {
			t.Fatalf("%s render: %v", name, err)
		}
	}
}
