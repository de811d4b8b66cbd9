package model

import (
	"context"
	"testing"

	"wfserverless/internal/experiments"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
)

func genWF(t *testing.T, recipe string, size int) *wfformat.Workflow {
	t.Helper()
	w, err := wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// within asserts |got-want| <= tol*want.
func within(t *testing.T, label string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", label)
	}
	ratio := got / want
	if ratio < 1-tol || ratio > 1+tol {
		t.Errorf("%s: predicted %.2f vs measured %.2f (ratio %.2f, tol ±%.0f%%)",
			label, got, want, ratio, tol*100)
	}
}

// TestPredictionMatchesMeasurementKnative validates the analytical model
// against actual platform runs for the headline serverless paradigm.
func TestPredictionMatchesMeasurementKnative(t *testing.T) {
	tn := experiments.DefaultTunables()
	tn.TimeScale = 0.02 * raceTimeFactor
	spec, _ := experiments.ByID(experiments.Kn10wNoPM)
	for _, tc := range []struct {
		recipe string
		size   int
	}{
		{"blast", 100},
		{"epigenomics", 80},
		{"seismology", 100},
	} {
		w := genWF(t, tc.recipe, tc.size)
		pred, err := Predict(spec, w, tn)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := experiments.RunWorkflow(context.Background(), spec, w, tn)
		if err != nil {
			t.Fatal(err)
		}
		within(t, tc.recipe+" makespan", pred.MakespanS, meas.MakespanS, 0.45)
		within(t, tc.recipe+" cpu", pred.MeanCPUCores, meas.MeanCPUCores, 0.6)
		if pred.ColdStarts == 0 {
			t.Errorf("%s: predicted zero cold starts", tc.recipe)
		}
	}
}

// TestPredictionMatchesMeasurementLocal validates the baseline model.
func TestPredictionMatchesMeasurementLocal(t *testing.T) {
	tn := experiments.DefaultTunables()
	tn.TimeScale = 0.02 * raceTimeFactor
	spec, _ := experiments.ByID(experiments.LC10wNoPM)
	w := genWF(t, "blast", 100)
	pred, err := Predict(spec, w, tn)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := experiments.RunWorkflow(context.Background(), spec, w, tn)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "makespan", pred.MakespanS, meas.MakespanS, 0.45)
	// CR baseline: reservation is exact.
	within(t, "cpu", pred.MeanCPUCores, meas.MeanCPUCores, 0.05)
	within(t, "mem", pred.MeanMemGB, meas.MeanMemGB, 0.25)
}

// TestModelReproducesHeadlineDirection: without running anything, the
// model must predict that serverless saves most CPU and memory while
// being slower — the paper's Figure 7 direction.
func TestModelReproducesHeadlineDirection(t *testing.T) {
	tn := experiments.DefaultTunables()
	kn, _ := experiments.ByID(experiments.Kn10wNoPM)
	lc, _ := experiments.ByID(experiments.LC10wNoPM)
	w := genWF(t, "blast", 200)
	pk, err := Predict(kn, w, tn)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Predict(lc, w, tn)
	if err != nil {
		t.Fatal(err)
	}
	if pk.MakespanS <= pl.MakespanS {
		t.Errorf("model: serverless %.1fs not slower than LC %.1fs", pk.MakespanS, pl.MakespanS)
	}
	if pk.MeanCPUCores >= pl.MeanCPUCores*0.6 {
		t.Errorf("model: CPU saving too small: kn=%.1f lc=%.1f", pk.MeanCPUCores, pl.MeanCPUCores)
	}
	if pk.MeanMemGB >= pl.MeanMemGB*0.6 {
		t.Errorf("model: memory saving too small: kn=%.2f lc=%.2f", pk.MeanMemGB, pl.MeanMemGB)
	}
}

// TestModelGroup2NarrowerGap: the model must also reproduce the group
// split analytically.
func TestModelGroup2NarrowerGap(t *testing.T) {
	tn := experiments.DefaultTunables()
	kn, _ := experiments.ByID(experiments.Kn10wNoPM)
	lc, _ := experiments.ByID(experiments.LC10wNoPM)
	ratio := func(recipe string) float64 {
		w := genWF(t, recipe, 120)
		pk, err := Predict(kn, w, tn)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Predict(lc, w, tn)
		if err != nil {
			t.Fatal(err)
		}
		return pk.MakespanS / pl.MakespanS
	}
	dense := ratio("blast")
	spread := ratio("epigenomics")
	if spread >= dense {
		t.Errorf("model ratios: blast=%.2f epigenomics=%.2f; group 2 should be narrower", dense, spread)
	}
}

func TestPredictCoarse(t *testing.T) {
	tn := experiments.DefaultTunables()
	knC, _ := experiments.ByID(experiments.Kn1000wPM)
	lcC, _ := experiments.ByID(experiments.LC1000wPM)
	w := genWF(t, "seismology", 100)
	pk, err := Predict(knC, w, tn)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Predict(lcC, w, tn)
	if err != nil {
		t.Fatal(err)
	}
	// Coarse: both reserve a whole node; times converge.
	if pk.MeanCPUCores != 46 || pl.MeanCPUCores != 46 {
		t.Fatalf("coarse CPU: kn=%v lc=%v", pk.MeanCPUCores, pl.MeanCPUCores)
	}
	r := pk.MakespanS / pl.MakespanS
	if r < 0.95 || r > 1.3 {
		t.Fatalf("coarse ratio = %.2f", r)
	}
	if pk.ColdStarts != 0 {
		t.Fatalf("coarse cold starts = %d", pk.ColdStarts)
	}
}

func TestPredictPhaseTimesSumToMakespan(t *testing.T) {
	tn := experiments.DefaultTunables()
	spec, _ := experiments.ByID(experiments.LC10wNoPM)
	w := genWF(t, "cycles", 80)
	p, err := Predict(spec, w, tn)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, pt := range p.PhaseTimes {
		sum += pt
	}
	delays := float64(len(p.PhaseTimes)-1) * tn.Manager.PhaseDelay
	if diff := p.MakespanS - sum - delays; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("phase times + delays != makespan: %v", diff)
	}
}

func TestPredictInvalidWorkflow(t *testing.T) {
	tn := experiments.DefaultTunables()
	spec, _ := experiments.ByID(experiments.Kn10wNoPM)
	w := wfformat.New("bad")
	w.AddTask(&wfformat.Task{Name: "a", Type: wfformat.TypeCompute, Cores: 1,
		Command: wfformat.Command{Arguments: []wfformat.Argument{{Name: "a"}}}})
	w.AddTask(&wfformat.Task{Name: "b", Type: wfformat.TypeCompute, Cores: 1,
		Command: wfformat.Command{Arguments: []wfformat.Argument{{Name: "b"}}}})
	w.Link("a", "b")
	w.Link("b", "a") // cycle
	if _, err := Predict(spec, w, tn); err == nil {
		t.Fatal("cyclic workflow predicted")
	}
}
