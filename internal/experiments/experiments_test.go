package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"wfserverless/internal/recipes"
	"wfserverless/internal/wfgen"
)

func TestParadigmCatalog(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("paradigms = %d, want 9 (Table II)", len(all))
	}
	if len(FineGrained()) != 7 {
		t.Fatalf("fine-grained = %d, want 7", len(FineGrained()))
	}
	if len(CoarseGrained()) != 2 {
		t.Fatalf("coarse-grained = %d, want 2", len(CoarseGrained()))
	}
	for _, s := range all {
		got, err := ByID(s.ID)
		if err != nil || got.ID != s.ID {
			t.Fatalf("ByID(%s): %v", s.ID, err)
		}
		if s.Description == "" {
			t.Fatalf("%s has no description", s.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown paradigm accepted")
	}
	// NoCR only for the one LC paradigm
	for _, s := range all {
		wantCR := s.ID != LC10wNoPMNoCR
		if s.CR != wantCR {
			t.Fatalf("%s CR = %v", s.ID, s.CR)
		}
	}
}

func TestDesignMatchesTable1(t *testing.T) {
	d := Design(recipes.Names())
	if len(d) != 140 {
		t.Fatalf("design = %d experiments, want 140", len(d))
	}
	fine, coarse := 0, 0
	for _, e := range d {
		switch e.Granularity {
		case "fine":
			fine++
		case "coarse":
			coarse++
		default:
			t.Fatalf("bad granularity %q", e.Granularity)
		}
	}
	if fine != 98 || coarse != 42 {
		t.Fatalf("fine=%d coarse=%d, want 98/42", fine, coarse)
	}
}

func TestFigure3Characterization(t *testing.T) {
	chars, err := Figure3(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(chars) != 7 {
		t.Fatalf("characterizations = %d", len(chars))
	}
	byName := map[string]Characterization{}
	for _, c := range chars {
		byName[c.Recipe] = c
	}
	// Blast and BWA: dense, few phases (paper: "more dense, featuring
	// fewer steps but a high concentration of functions").
	for _, dense := range []string{"blast", "bwa", "seismology"} {
		if byName[dense].Phases > 4 {
			t.Errorf("%s phases = %d, want few", dense, byName[dense].Phases)
		}
	}
	// Cycles and Epigenomics: more phases, diverse function types.
	for _, spread := range []string{"cycles", "epigenomics"} {
		if byName[spread].Phases < 8 {
			t.Errorf("%s phases = %d, want many", spread, byName[spread].Phases)
		}
		if len(byName[spread].Categories) < 5 {
			t.Errorf("%s categories = %d, want diverse", spread, len(byName[spread].Categories))
		}
	}
	var sb strings.Builder
	if err := WriteCharacterization(&sb, chars); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Epigenomics") {
		t.Fatal("characterization output incomplete")
	}
}

// fastTunables compresses time aggressively for unit tests, backing off
// under the race detector.
func fastTunables() Tunables {
	tn := DefaultTunables()
	tn.TimeScale = 0.002 * raceTimeFactor
	return tn
}

func mustGen(t *testing.T, recipe string, size int) *wfgen.Instance {
	t.Helper()
	inst, err := generate(recipe, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestRunWorkflowKnativeMeasures(t *testing.T) {
	spec, _ := ByID(Kn10wNoPM)
	inst := mustGen(t, "blast", 30)
	m, err := RunWorkflow(context.Background(), spec, inst.Workflow, fastTunables())
	if err != nil {
		t.Fatal(err)
	}
	if m.MakespanS <= 0 || m.MeanPowerW <= 0 || m.EnergyJ <= 0 {
		t.Fatalf("measurement = %+v", m)
	}
	if m.Requests != int64(inst.Workflow.Len()) {
		t.Fatalf("requests = %d, want %d", m.Requests, inst.Workflow.Len())
	}
	if m.ColdStarts == 0 {
		t.Fatal("no cold starts on fine-grained serverless")
	}
	if m.MeanMemGB <= 0 || m.MeanCPUCores <= 0 {
		t.Fatalf("resource means empty: %+v", m)
	}
}

func TestRunWorkflowLocalMeasures(t *testing.T) {
	spec, _ := ByID(LC10wNoPM)
	inst := mustGen(t, "blast", 30)
	m, err := RunWorkflow(context.Background(), spec, inst.Workflow, fastTunables())
	if err != nil {
		t.Fatal(err)
	}
	if m.ColdStarts != 0 {
		t.Fatal("local containers recorded cold starts")
	}
	// Always-on fleet: CPU usage ~ full reservation (96 cores).
	if m.MeanCPUCores < 90 {
		t.Fatalf("LC mean CPU = %v, want ~96 (full reservation)", m.MeanCPUCores)
	}
}

func TestRunWorkflowBadTimeScale(t *testing.T) {
	spec, _ := ByID(LC10wNoPM)
	inst := mustGen(t, "blast", 10)
	tn := fastTunables()
	tn.TimeScale = 0
	if _, err := RunWorkflow(context.Background(), spec, inst.Workflow, tn); err == nil {
		t.Fatal("zero TimeScale accepted")
	}
}

// TestHeadlineShape verifies the paper's Figure 7 findings on one
// group-1 workflow: serverless is slower but saves most of the CPU and
// memory at comparable power.
func TestHeadlineShape(t *testing.T) {
	tn := fastTunables()
	inst := mustGen(t, "blast", 60)
	knSpec, _ := ByID(Kn10wNoPM)
	lcSpec, _ := ByID(LC10wNoPM)
	kn, err := RunWorkflow(context.Background(), knSpec, inst.Workflow, tn)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := RunWorkflow(context.Background(), lcSpec, inst.Workflow, tn)
	if err != nil {
		t.Fatal(err)
	}
	if kn.MakespanS <= lc.MakespanS {
		t.Errorf("group-1 serverless should be slower: kn=%v lc=%v", kn.MakespanS, lc.MakespanS)
	}
	cpuSave := 1 - kn.MeanCPUCores/lc.MeanCPUCores
	if cpuSave < 0.4 {
		t.Errorf("CPU saving = %.0f%%, want substantial", 100*cpuSave)
	}
	memSave := 1 - kn.MeanMemGB/lc.MeanMemGB
	if memSave < 0.4 {
		t.Errorf("memory saving = %.0f%%, want substantial", 100*memSave)
	}
	ratio := kn.MeanPowerW / lc.MeanPowerW
	if ratio < 0.6 || ratio > 1.4 {
		t.Errorf("power ratio = %.2f, want comparable", ratio)
	}
}

// TestGroup2NarrowerGap verifies the paper's group split: the serverless
// slowdown on multi-phase workflows (Epigenomics) is smaller than on
// dense ones (Blast).
func TestGroup2NarrowerGap(t *testing.T) {
	tn := fastTunables()
	// Ratios near 1 need a less compressed clock to stay above
	// scheduler jitter.
	tn.TimeScale = 0.01 * raceTimeFactor
	ratio := func(recipe string) float64 {
		inst := mustGen(t, recipe, 60)
		knSpec, _ := ByID(Kn10wNoPM)
		lcSpec, _ := ByID(LC10wNoPM)
		kn, err := RunWorkflow(context.Background(), knSpec, inst.Workflow, tn)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := RunWorkflow(context.Background(), lcSpec, inst.Workflow, tn)
		if err != nil {
			t.Fatal(err)
		}
		return kn.MakespanS / lc.MakespanS
	}
	dense := ratio("blast")
	spread := ratio("epigenomics")
	if spread >= dense {
		t.Errorf("slowdown: blast=%.2f epigenomics=%.2f; group 2 should be narrower", dense, spread)
	}
}

// TestCoarseGrainedShape verifies Figure 6: with whole-machine
// reservations, serverless time approaches local containers and the
// resource advantage disappears.
func TestCoarseGrainedShape(t *testing.T) {
	tn := fastTunables()
	inst := mustGen(t, "seismology", 60)
	knSpec, _ := ByID(Kn1000wPM)
	lcSpec, _ := ByID(LC1000wPM)
	// Two like-for-like makespans need a less compressed clock to stay
	// above scheduler jitter. The first 1000-worker run in a process is
	// ~1.5x slower whichever paradigm it is (one-off runtime warm-up, not
	// GC), so one run is discarded, and the ratio is of medians over five
	// pairs whose order alternates.
	tn.TimeScale = 0.01 * raceTimeFactor
	run := func(s Spec) *Measurement {
		m, err := RunWorkflow(context.Background(), s, inst.Workflow, tn)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run(lcSpec)
	var kn, lc *Measurement
	var knS, lcS []float64
	for i := 0; i < 5; i++ {
		if i%2 == 0 {
			kn, lc = run(knSpec), run(lcSpec)
		} else {
			lc, kn = run(lcSpec), run(knSpec)
		}
		knS, lcS = append(knS, kn.MakespanS), append(lcS, lc.MakespanS)
	}
	slices.Sort(knS)
	slices.Sort(lcS)
	if kn.ColdStarts > 1 {
		t.Errorf("coarse serverless cold starts = %d, want pre-provisioned", kn.ColdStarts)
	}
	ratio := knS[2] / lcS[2]
	if ratio > 1.3 {
		t.Errorf("coarse time ratio = %.2f, want close to 1", ratio)
	}
	// CPU usage no longer shows the big serverless saving: the single
	// pod reserves a whole node for the entire run.
	cpuSave := 1 - kn.MeanCPUCores/lc.MeanCPUCores
	if cpuSave > 0.35 {
		t.Errorf("coarse CPU saving = %.0f%%, advantage should vanish", 100*cpuSave)
	}
}

// TestFigure4WorkersHelp verifies that 10 workers per pod beat 1 worker
// per pod on execution time for a dense workflow (the paper's preferred
// Kn10wNoPM configuration).
func TestFigure4WorkersHelp(t *testing.T) {
	tn := fastTunables()
	inst := mustGen(t, "blast", 60)
	oneW, _ := ByID(Kn1wNoPM)
	tenW, _ := ByID(Kn10wNoPM)
	// At the fast clock a whole run is ~50 ms of wall time, and on a
	// two-core box one descheduled worker moves either makespan by more
	// than the 10% margin. So the clock is less compressed, and the
	// comparison is of medians over three pairs whose order alternates.
	tn.TimeScale = 0.01 * raceTimeFactor
	run := func(s Spec) *Measurement {
		m, err := RunWorkflow(context.Background(), s, inst.Workflow, tn)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var span1, span10, mem1, mem10 []float64
	for i := 0; i < 3; i++ {
		var m1, m10 *Measurement
		if i%2 == 0 {
			m1, m10 = run(oneW), run(tenW)
		} else {
			m10, m1 = run(tenW), run(oneW)
		}
		span1, span10 = append(span1, m1.MakespanS), append(span10, m10.MakespanS)
		mem1, mem10 = append(mem1, m1.MeanMemGB), append(mem10, m10.MeanMemGB)
	}
	for _, s := range [][]float64{span1, span10, mem1, mem10} {
		slices.Sort(s)
	}
	if span10[1] > span1[1]*1.1 {
		t.Errorf("10w=%.1fs vs 1w=%.1fs; more workers should not be slower", span10[1], span1[1])
	}
	// Fewer pods -> less per-pod overhead memory.
	if mem10[1] > mem1[1]*1.1 {
		t.Errorf("10w mem=%.2f vs 1w mem=%.2f; pooling should not raise memory", mem10[1], mem1[1])
	}
}

// TestPMRaisesMemory verifies the persistent-memory knob: PM holds
// ballast between invocations and must raise mean memory.
func TestPMRaisesMemory(t *testing.T) {
	tn := fastTunables()
	inst := mustGen(t, "blast", 60)
	pm, _ := ByID(LC1wPM)
	nopm, _ := ByID(LC1wNoPM)
	mPM, err := RunWorkflow(context.Background(), pm, inst.Workflow, tn)
	if err != nil {
		t.Fatal(err)
	}
	mNo, err := RunWorkflow(context.Background(), nopm, inst.Workflow, tn)
	if err != nil {
		t.Fatal(err)
	}
	if mPM.MeanMemGB <= mNo.MeanMemGB {
		t.Errorf("PM mem=%.2fGB <= NoPM mem=%.2fGB", mPM.MeanMemGB, mNo.MeanMemGB)
	}
}

// TestNoCRLowersCPUAndPower verifies the Figure 5 NoCR observation.
func TestNoCRLowersCPUAndPower(t *testing.T) {
	tn := fastTunables()
	// The makespan-similarity assertion compares many short phases;
	// use a less compressed clock so scheduler jitter (and the race
	// detector's overhead) stays well below phase durations.
	tn.TimeScale = 0.01 * raceTimeFactor
	inst := mustGen(t, "epigenomics", 40)
	cr, _ := ByID(LC10wNoPM)
	nocr, _ := ByID(LC10wNoPMNoCR)
	mCR, err := RunWorkflow(context.Background(), cr, inst.Workflow, tn)
	if err != nil {
		t.Fatal(err)
	}
	mNo, err := RunWorkflow(context.Background(), nocr, inst.Workflow, tn)
	if err != nil {
		t.Fatal(err)
	}
	if mNo.MeanCPUCores >= mCR.MeanCPUCores {
		t.Errorf("NoCR cpu=%.1f >= CR cpu=%.1f", mNo.MeanCPUCores, mCR.MeanCPUCores)
	}
	if mNo.MeanPowerW >= mCR.MeanPowerW {
		t.Errorf("NoCR power=%.1f >= CR power=%.1f (c-state penalty)", mNo.MeanPowerW, mCR.MeanPowerW)
	}
	// Execution time unchanged (same worker pool).
	if mNo.MakespanS > mCR.MakespanS*1.35 || mNo.MakespanS < mCR.MakespanS*0.65 {
		t.Errorf("NoCR time=%.1f vs CR time=%.1f, want similar", mNo.MakespanS, mCR.MakespanS)
	}
}

func TestSuiteRenderingAndReductions(t *testing.T) {
	tn := fastTunables()
	sz := Sizes{Small: 20, Large: 40, Huge: 60}
	suite, err := runMatrix(context.Background(), "Figure 7",
		[]Paradigm{Kn10wNoPM, LC10wNoPM}, []string{"blast"}, []int{sz.Small}, 1, tn)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Errors) > 0 {
		t.Fatalf("errors: %v", suite.Errors)
	}
	if len(suite.Measurements) != 2 {
		t.Fatalf("measurements = %d", len(suite.Measurements))
	}
	reds := Reductions(suite)
	if len(reds) != 1 {
		t.Fatalf("reductions = %+v", reds)
	}
	cpu, mem := MaxReductions(reds)
	if cpu <= 0 || mem <= 0 {
		t.Fatalf("headline reductions cpu=%.1f mem=%.1f", cpu, mem)
	}

	var tbl strings.Builder
	if err := WriteTable(&tbl, suite); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "Kn10wNoPM") {
		t.Fatal("table missing paradigm")
	}
	var csv strings.Builder
	if err := WriteCSV(&csv, suite); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "figure,paradigm") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestSizesClasses(t *testing.T) {
	sz := Sizes{Small: 30, Large: 120, Huge: 300}
	if sz.of("small") != sz.Small || sz.of("large") != sz.Large || sz.of("huge") != sz.Huge {
		t.Fatal("size class mapping broken")
	}
}
