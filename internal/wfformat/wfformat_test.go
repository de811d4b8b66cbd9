package wfformat

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// sameWorkflow reports whether a and b read the same to a caller: every
// exported field deeply equal, and the same TaskNames. The order the
// tasks were added or parsed in is left out: a workflow built in one
// order and parsed back from its sorted JSON differ in it by construction.
func sameWorkflow(a, b *Workflow) bool {
	ea, eb := *a, *b
	ea.order, eb.order = nil, nil
	return reflect.DeepEqual(ea, eb) && slices.Equal(a.TaskNames(), b.TaskNames())
}

// buildTask returns a minimal valid compute task.
func buildTask(name, category string, inputs []string, outputs map[string]int64) *Task {
	t := &Task{
		Name:     name,
		Type:     TypeCompute,
		Cores:    1,
		ID:       name,
		Category: category,
		Command: Command{
			Program: "wfbench",
			Arguments: []Argument{{
				Name:       name,
				PercentCPU: 0.9,
				CPUWork:    100,
				Out:        outputs,
				Inputs:     inputs,
			}},
		},
	}
	for _, in := range inputs {
		t.Files = append(t.Files, File{Link: LinkInput, Name: in, SizeInBytes: 100})
	}
	for out, sz := range outputs {
		t.Files = append(t.Files, File{Link: LinkOutput, Name: out, SizeInBytes: sz})
	}
	return t
}

// miniBlast builds a split -> {blastall_1, blastall_2} -> cat workflow.
func miniBlast(t testing.TB) *Workflow {
	t.Helper()
	w := New("blast-mini")
	split := buildTask("split_fasta_1", "split_fasta",
		[]string{"input.fasta"},
		map[string]int64{"split_1_out.txt": 200, "split_2_out.txt": 200})
	b1 := buildTask("blastall_1", "blastall",
		[]string{"split_1_out.txt"}, map[string]int64{"blast_1_out.txt": 400})
	b2 := buildTask("blastall_2", "blastall",
		[]string{"split_2_out.txt"}, map[string]int64{"blast_2_out.txt": 400})
	cat := buildTask("cat_1", "cat",
		[]string{"blast_1_out.txt", "blast_2_out.txt"},
		map[string]int64{"final.txt": 800})
	for _, task := range []*Task{split, b1, b2, cat} {
		if err := w.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	for _, link := range [][2]string{
		{"split_fasta_1", "blastall_1"},
		{"split_fasta_1", "blastall_2"},
		{"blastall_1", "cat_1"},
		{"blastall_2", "cat_1"},
	} {
		if err := w.Link(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestAddTaskDuplicate(t *testing.T) {
	w := New("w")
	if err := w.AddTask(buildTask("a", "c", nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTask(buildTask("a", "c", nil, nil)); err == nil {
		t.Fatal("duplicate task accepted")
	}
	if err := w.AddTask(&Task{}); err == nil {
		t.Fatal("empty-name task accepted")
	}
}

func TestLinkUnknown(t *testing.T) {
	w := New("w")
	w.AddTask(buildTask("a", "c", nil, nil))
	if err := w.Link("a", "nope"); err == nil {
		t.Fatal("link to unknown child accepted")
	}
	if err := w.Link("nope", "a"); err == nil {
		t.Fatal("link from unknown parent accepted")
	}
}

func TestLinkIdempotent(t *testing.T) {
	w := miniBlast(t)
	before := len(w.Tasks["split_fasta_1"].Children)
	if err := w.Link("split_fasta_1", "blastall_1"); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Tasks["split_fasta_1"].Children); got != before {
		t.Fatalf("re-link duplicated child: %d -> %d", before, got)
	}
}

func TestValidateOK(t *testing.T) {
	if err := miniBlast(t).Validate(); err != nil {
		t.Fatalf("valid workflow rejected: %v", err)
	}
}

func TestValidateAsymmetricLink(t *testing.T) {
	w := miniBlast(t)
	// break symmetry: remove child entry but keep the parent's
	cat := w.Tasks["cat_1"]
	cat.Parents = []string{"blastall_1"} // drop blastall_2
	err := w.Validate()
	if err == nil {
		t.Fatal("asymmetric link accepted")
	}
	if !strings.Contains(err.Error(), "blastall_2") {
		t.Fatalf("error does not name offender: %v", err)
	}
}

func TestValidateBadPercentCPU(t *testing.T) {
	w := miniBlast(t)
	w.Tasks["cat_1"].Command.Arguments[0].PercentCPU = 1.5
	if err := w.Validate(); err == nil {
		t.Fatal("percent-cpu > 1 accepted")
	}
}

func TestValidateCycle(t *testing.T) {
	w := miniBlast(t)
	if err := w.Link("cat_1", "split_fasta_1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err == nil {
		t.Fatal("cyclic workflow accepted")
	}
}

func TestValidateDuplicateProducer(t *testing.T) {
	w := miniBlast(t)
	// blastall_2 also claims to produce blast_1_out.txt
	b2 := w.Tasks["blastall_2"]
	b2.Files = append(b2.Files, File{Link: LinkOutput, Name: "blast_1_out.txt", SizeInBytes: 1})
	if err := w.Validate(); err == nil {
		t.Fatal("duplicate producer accepted")
	}
}

func TestValidateNonAncestorInput(t *testing.T) {
	w := miniBlast(t)
	// blastall_2 reads a file produced by its sibling blastall_1
	b2 := w.Tasks["blastall_2"]
	b2.Files = append(b2.Files, File{Link: LinkInput, Name: "blast_1_out.txt", SizeInBytes: 1})
	if err := w.Validate(); err == nil {
		t.Fatal("input from non-ancestor accepted")
	}
}

func TestPhases(t *testing.T) {
	w := miniBlast(t)
	phases, err := w.Phases()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"split_fasta_1"},
		{"blastall_1", "blastall_2"},
		{"cat_1"},
	}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("Phases = %v, want %v", phases, want)
	}
}

func TestCategories(t *testing.T) {
	w := miniBlast(t)
	got := w.Categories()
	want := map[string]int{"split_fasta": 1, "blastall": 2, "cat": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Categories = %v, want %v", got, want)
	}
}

func TestInputOutputFiles(t *testing.T) {
	w := miniBlast(t)
	cat := w.Tasks["cat_1"]
	if got := cat.InputFiles(); !reflect.DeepEqual(got, []string{"blast_1_out.txt", "blast_2_out.txt"}) {
		t.Fatalf("InputFiles = %v", got)
	}
	if got := cat.OutputFiles(); !reflect.DeepEqual(got, []string{"final.txt"}) {
		t.Fatalf("OutputFiles = %v", got)
	}
}

func TestExternalInputs(t *testing.T) {
	w := miniBlast(t)
	_, _, ext, err := w.ValidateCompile()
	if err != nil || len(ext) != 1 || ext[0].Name != "input.fasta" {
		t.Fatalf("external inputs = %v (%v)", ext, err)
	}
}

func TestTotalDataBytes(t *testing.T) {
	w := miniBlast(t)
	// input.fasta(100) + split outs (200+200) + blast outs (400+400) + final (800)
	if got := w.TotalDataBytes(); got != 2100 {
		t.Fatalf("TotalDataBytes = %d, want 2100", got)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	w := miniBlast(t)
	data, err := w.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameWorkflow(w, w2) {
		t.Fatal("round trip changed workflow")
	}
}

func TestParseBadJSON(t *testing.T) {
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	w := miniBlast(t)
	path := filepath.Join(t.TempDir(), "wf.json")
	if err := w.SaveCompact(path); err != nil {
		t.Fatal(err)
	}
	w2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameWorkflow(w, w2) {
		t.Fatal("Save/Load round trip changed workflow")
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	w := miniBlast(t)
	c := w.Clone()
	c.Tasks["cat_1"].Command.APIURL = "http://changed"
	c.Tasks["cat_1"].Command.Arguments[0].Out["final.txt"] = 1
	c.Tasks["cat_1"].Parents[0] = "mutated"
	if w.Tasks["cat_1"].Command.APIURL != "" {
		t.Fatal("clone shares Command")
	}
	if w.Tasks["cat_1"].Command.Arguments[0].Out["final.txt"] != 800 {
		t.Fatal("clone shares Out map")
	}
	if w.Tasks["cat_1"].Parents[0] == "mutated" {
		t.Fatal("clone shares Parents slice")
	}
}

func TestComputeStats(t *testing.T) {
	w := miniBlast(t)
	s, err := w.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tasks != 4 || s.Edges != 4 || s.Phases != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxPhaseWidth != 2 {
		t.Fatalf("MaxPhaseWidth = %d", s.MaxPhaseWidth)
	}
	if !reflect.DeepEqual(s.PhaseWidths, []int{1, 2, 1}) {
		t.Fatalf("PhaseWidths = %v", s.PhaseWidths)
	}
	if s.MeanPhaseWidth < 1.3 || s.MeanPhaseWidth > 1.4 {
		t.Fatalf("MeanPhaseWidth = %v", s.MeanPhaseWidth)
	}
}

// randomFanout builds a random but always-valid workflow: a chain of
// phases, each task consuming one file from a random task in the
// previous phase.
func randomFanout(r *rand.Rand) *Workflow {
	w := New("rand")
	phases := 2 + r.Intn(4)
	var prev []*Task
	id := 0
	for p := 0; p < phases; p++ {
		width := 1 + r.Intn(5)
		var cur []*Task
		for i := 0; i < width; i++ {
			name := "t" + string(rune('a'+p)) + "_" + string(rune('0'+i))
			_ = id
			out := map[string]int64{name + "_out": int64(10 + r.Intn(100))}
			var inputs []string
			var parent *Task
			if len(prev) > 0 {
				parent = prev[r.Intn(len(prev))]
				inputs = parent.OutputFiles()
			} else {
				inputs = []string{"external_in"}
			}
			task := buildTask(name, "cat", inputs, out)
			w.AddTask(task)
			if parent != nil {
				w.Link(parent.Name, name)
			}
			cur = append(cur, task)
			id++
		}
		prev = cur
	}
	return w
}

func TestQuickRandomWorkflowsValidate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randomFanout(r)
		if err := w.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		data, err := w.Marshal()
		if err != nil {
			return false
		}
		w2, err := Parse(data)
		if err != nil {
			return false
		}
		return sameWorkflow(w, w2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPhasesCoverAllTasks(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := randomFanout(r)
		phases, err := w.Phases()
		if err != nil {
			return false
		}
		n := 0
		for _, p := range phases {
			n += len(p)
		}
		return n == w.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStatsCriticalPath(t *testing.T) {
	w := miniBlast(t)
	for _, task := range w.Tasks {
		task.RuntimeInSeconds = 1
	}
	s, err := w.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	// split -> blastall -> cat: 3 tasks of 1s each.
	if s.CriticalPathSeconds != 3 {
		t.Fatalf("CriticalPathSeconds = %v, want 3", s.CriticalPathSeconds)
	}
	if len(s.CriticalPath) != 3 {
		t.Fatalf("CriticalPath = %v", s.CriticalPath)
	}
}
