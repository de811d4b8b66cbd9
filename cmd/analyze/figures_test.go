package main

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"wfserverless/internal/experiments"
)

// campaign runs a tiny real suite and reads it back through its CSV,
// so the renderers are tested against the actual producer.
func campaign(t *testing.T) []*experiments.Measurement {
	t.Helper()
	tn := experiments.DefaultTunables()
	tn.TimeScale = 0.002
	suite, err := experiments.Figure7(context.Background(),
		experiments.Sizes{Small: 20, Large: 30, Huge: 40}, 1, tn)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := experiments.WriteCSV(&b, suite); err != nil {
		t.Fatal(err)
	}
	suites, err := experiments.ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := byFigure(suites)
	return recs["Figure7"]
}

// TestByFigure groups measurements by their suite's figure, in file
// order, and lists only figures that hold any.
func TestByFigure(t *testing.T) {
	a := &experiments.Measurement{Paradigm: experiments.Kn1wPM}
	b := &experiments.Measurement{Paradigm: experiments.LC1wPM}
	recs, figs := byFigure([]*experiments.Suite{
		{Figure: "Figure7", Measurements: []*experiments.Measurement{a}},
		{Figure: "empty"},
		{Figure: "Figure4", Measurements: []*experiments.Measurement{a}},
		{Figure: "Figure7", Measurements: []*experiments.Measurement{b}},
	})
	if !slices.Equal(figs, []string{"Figure4", "Figure7"}) {
		t.Fatalf("figures = %v", figs)
	}
	if got := recs["Figure7"]; len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Figure7 = %v", got)
	}
	if got := len(recs["nope"]); got != 0 {
		t.Fatalf("nope = %d", got)
	}
}

func TestRenderFigure(t *testing.T) {
	recs := campaign(t)
	for _, metric := range Metrics {
		var b strings.Builder
		if err := RenderFigure(&b, recs, "Figure7", metric); err != nil {
			t.Fatalf("metric %s: %v", metric, err)
		}
		out := b.String()
		if !strings.Contains(out, "Kn10wNoPM") || !strings.Contains(out, "#") {
			t.Fatalf("metric %s render incomplete:\n%s", metric, out[:200])
		}
	}
	var b strings.Builder
	if err := RenderFigure(&b, recs, "Figure7", "nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if err := RenderFigure(&b, nil, "FigureX", "makespan_s"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestAggregate(t *testing.T) {
	recs := campaign(t)
	agg, err := Aggregate(recs, "mean_cpu_cores")
	if err != nil {
		t.Fatal(err)
	}
	kn, lc := agg["Kn10wNoPM"], agg["LC10wNoPM"]
	if math.IsNaN(kn) || math.IsNaN(lc) {
		t.Fatal("NaN aggregate")
	}
	// The headline: serverless uses far less CPU on average.
	if kn >= lc {
		t.Fatalf("aggregate CPU: kn=%v >= lc=%v", kn, lc)
	}
	if _, err := Aggregate(recs, "nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
