package recipes

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNamesComplete(t *testing.T) {
	want := []string{"blast", "bwa", "cycles", "epigenomics", "genomes", "seismology", "srasearch"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
}

func TestForName(t *testing.T) {
	r, err := ForName("blast")
	if err != nil {
		t.Fatal(err)
	}
	if r.DisplayName() != "Blast" {
		t.Fatalf("DisplayName = %q", r.DisplayName())
	}
	if _, err := ForName("nope"); err == nil {
		t.Fatal("unknown recipe accepted")
	}
}

func TestAllOrdered(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("All returned %d recipes", len(all))
	}
	for i, r := range all {
		if r.Name() != Names()[i] {
			t.Fatalf("All()[%d] = %s", i, r.Name())
		}
	}
}

func TestGroupsMatchPaper(t *testing.T) {
	groups := map[string]int{
		"blast": 1, "bwa": 1, "genomes": 1, "seismology": 1, "srasearch": 1,
		"cycles": 2, "epigenomics": 2,
	}
	for name, want := range groups {
		r, _ := ForName(name)
		if r.Group() != want {
			t.Errorf("%s group = %d, want %d", name, r.Group(), want)
		}
	}
}

func TestGenerateAllRecipesValidate(t *testing.T) {
	for _, r := range All() {
		for _, size := range []int{r.MinTasks(), 50, 250} {
			w, err := r.Generate(size, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatalf("%s size %d: %v", r.Name(), size, err)
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("%s size %d invalid: %v", r.Name(), size, err)
			}
			if w.Len() < size || w.Len() > size+8 {
				t.Fatalf("%s requested %d got %d tasks", r.Name(), size, w.Len())
			}
		}
	}
}

func TestGenerateTooSmall(t *testing.T) {
	for _, r := range All() {
		if _, err := r.Generate(r.MinTasks()-1, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s accepted size below MinTasks", r.Name())
		}
	}
}

func TestGenerateDeterministicShape(t *testing.T) {
	for _, r := range All() {
		a, err := r.Generate(60, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Generate(60, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different workflows", r.Name())
		}
	}
}

func TestBlastStructure(t *testing.T) {
	r, _ := ForName("blast")
	w, err := r.Generate(100, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 100 {
		t.Fatalf("blast is exact-size; got %d", w.Len())
	}
	cats := w.Categories()
	if cats["blastall"] != 97 || cats["split_fasta"] != 1 || cats["cat"] != 1 || cats["cat_blast"] != 1 {
		t.Fatalf("categories = %v", cats)
	}
	phases, err := w.Phases()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("blast phases = %d, want 3", len(phases))
	}
	if len(phases[1]) != 97 {
		t.Fatalf("blast dense phase width = %d, want 97", len(phases[1]))
	}
}

func TestSeismologyStructure(t *testing.T) {
	r, _ := ForName("seismology")
	w, _ := r.Generate(200, rand.New(rand.NewSource(3)))
	phases, err := w.Phases()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("seismology phases = %d, want 2", len(phases))
	}
	if len(phases[0]) != 199 || len(phases[1]) != 1 {
		t.Fatalf("widths = %d,%d", len(phases[0]), len(phases[1]))
	}
}

func TestEpigenomicsIsMultiPhase(t *testing.T) {
	r, _ := ForName("epigenomics")
	w, _ := r.Generate(100, rand.New(rand.NewSource(4)))
	phases, err := w.Phases()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) < 8 {
		t.Fatalf("epigenomics phases = %d, want >= 8 (group-2 shape)", len(phases))
	}
	cats := w.Categories()
	if len(cats) != 9 {
		t.Fatalf("epigenomics categories = %v, want 9 types", cats)
	}
}

func TestCyclesIsMultiPhase(t *testing.T) {
	r, _ := ForName("cycles")
	w, _ := r.Generate(120, rand.New(rand.NewSource(5)))
	phases, err := w.Phases()
	if err != nil {
		t.Fatal(err)
	}
	// 4 phases per season plus the final plots; 120 tasks yield 4 seasons.
	if len(phases) != 17 {
		t.Fatalf("cycles phases = %d, want 17", len(phases))
	}
	if got := w.Categories()["cycles_plots"]; got != 1 {
		t.Fatalf("cycles_plots count = %d", got)
	}
}

func TestGenomesStructure(t *testing.T) {
	r, _ := ForName("genomes")
	w, _ := r.Generate(200, rand.New(rand.NewSource(6)))
	cats := w.Categories()
	if cats["individuals_merge"] == 0 || cats["sifting"] == 0 {
		t.Fatalf("categories = %v", cats)
	}
	if cats["mutation_overlap"] != cats["frequency"] {
		t.Fatalf("overlap/frequency mismatch: %v", cats)
	}
	if cats["individuals_merge"] != cats["sifting"] {
		t.Fatalf("one merge and one sifting per chromosome: %v", cats)
	}
}

func TestSrasearchExactAndChained(t *testing.T) {
	r, _ := ForName("srasearch")
	for _, size := range []int{5, 6, 7, 50, 101} {
		w, err := r.Generate(size, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() != size {
			t.Fatalf("size %d: got %d tasks", size, w.Len())
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
	w, _ := r.Generate(50, rand.New(rand.NewSource(8)))
	phases, _ := w.Phases()
	if len(phases) != 4 {
		t.Fatalf("srasearch phases = %d, want 4", len(phases))
	}
}

func TestBWAStructure(t *testing.T) {
	r, _ := ForName("bwa")
	w, _ := r.Generate(54, rand.New(rand.NewSource(9)))
	if w.Len() != 54 {
		t.Fatalf("bwa exact size: got %d", w.Len())
	}
	cats := w.Categories()
	if cats["bwa"] != 50 {
		t.Fatalf("bwa aligners = %d, want 50", cats["bwa"])
	}
	phases, _ := w.Phases()
	if len(phases) != 4 {
		t.Fatalf("bwa phases = %d, want 4", len(phases))
	}
}

func TestGroup1IsDenser(t *testing.T) {
	// Group-1 recipes must have a dominant phase much wider than any
	// group-2 recipe at the same size — the paper's characterization.
	size := 120
	minG1 := 1 << 30
	maxG2 := 0
	for _, r := range All() {
		w, err := r.Generate(size, rand.New(rand.NewSource(10)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := w.ComputeStats()
		if err != nil {
			t.Fatal(err)
		}
		switch r.Group() {
		case 1:
			if s.MaxPhaseWidth < minG1 {
				minG1 = s.MaxPhaseWidth
			}
		case 2:
			if s.MaxPhaseWidth > maxG2 {
				maxG2 = s.MaxPhaseWidth
			}
		}
	}
	if minG1 <= maxG2 {
		t.Fatalf("group-1 min max-width %d <= group-2 max %d", minG1, maxG2)
	}
}

func TestProfilesAppliedToTasks(t *testing.T) {
	r, _ := ForName("blast")
	w, _ := r.Generate(20, rand.New(rand.NewSource(11)))
	for _, task := range w.Tasks {
		arg := task.Command.Arguments[0]
		p := blastProfiles[task.Category]
		if arg.PercentCPU != p.PercentCPU {
			t.Fatalf("task %s percent-cpu = %v, want %v", task.Name, arg.PercentCPU, p.PercentCPU)
		}
		if arg.CPUWork < p.CPUWork*0.8-1e-9 || arg.CPUWork > p.CPUWork*1.2+1e-9 {
			t.Fatalf("task %s cpu-work %v outside jitter of %v", task.Name, arg.CPUWork, p.CPUWork)
		}
		if arg.MemBytes != p.MemBytes {
			t.Fatalf("task %s mem %d, want %d", task.Name, arg.MemBytes, p.MemBytes)
		}
		if len(arg.Out) != 1 {
			t.Fatalf("task %s has %d outputs", task.Name, len(arg.Out))
		}
	}
}

func TestRootTasksHaveExternalInputs(t *testing.T) {
	for _, r := range All() {
		w, _ := r.Generate(60, rand.New(rand.NewSource(12)))
		if _, _, ext, err := w.ValidateCompile(); err != nil || len(ext) == 0 {
			t.Errorf("%s: no external inputs (%v)", r.Name(), err)
		}
	}
}

func TestQuickAllSizesValid(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		size := 30 + int(sz)%200
		for _, r := range All() {
			w, err := r.Generate(size, rand.New(rand.NewSource(seed)))
			if err != nil {
				return false
			}
			if err := w.Validate(); err != nil {
				t.Logf("%s size %d: %v", r.Name(), size, err)
				return false
			}
			if w.Len() < size || w.Len() > size+8 {
				t.Logf("%s size %d -> %d", r.Name(), size, w.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
