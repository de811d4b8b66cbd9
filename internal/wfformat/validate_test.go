package wfformat_test

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wfserverless/internal/dag"
	"wfserverless/internal/recipes"
	. "wfserverless/internal/wfformat"
)

// fixture is one invalid workflow and the problems Validate must report
// for it, in order — recorded from the map-graph Validate this one
// replaced.
type fixture struct {
	name  string
	build func(t testing.TB) *Workflow
	want  []string
}

// mutate returns a builder applying f to a fresh miniBlast.
func mutate(f func(w *Workflow)) func(testing.TB) *Workflow {
	return func(t testing.TB) *Workflow {
		w := MiniBlast(t)
		f(w)
		return w
	}
}

// chain builds tasks linked in a line, task i reading task i-1's output.
func chain(t testing.TB, names ...string) *Workflow {
	t.Helper()
	w := New("chain")
	for i, n := range names {
		var in []string
		if i > 0 {
			in = []string{"f" + names[i-1]}
		}
		if err := w.AddTask(BuildTask(n, "x", in, map[string]int64{"f" + n: 1})); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := w.Link(names[i-1], n); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w
}

var brokenFixtures = []fixture{
	{"asymmetric_link", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Parents = []string{"blastall_1"} // drop blastall_2
	}), []string{
		`task "blastall_2" lists child "cat_1" which does not list it as parent`,
	}},
	{"bad_percent_cpu", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Command.Arguments[0].PercentCPU = 1.5
	}), []string{
		`task "cat_1" percent-cpu 1.5 outside [0,1]`,
	}},
	{"negative_cpu_work", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Command.Arguments[0].CPUWork = -1
	}), []string{
		`task "cat_1" negative cpu-work`,
	}},
	{"argument_name_mismatch", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Command.Arguments[0].Name = "other"
	}), []string{
		`task "cat_1" argument name "other" mismatch`,
	}},
	{"no_argument_block", mutate(func(w *Workflow) {
		w.Tasks["blastall_1"].Command.Arguments = nil
	}), []string{
		`task "blastall_1" has 0 argument blocks, want 1`,
	}},
	{"keyed_name_mismatch", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Name = "cat_one"
	}), []string{
		`task keyed "cat_1" has name "cat_one"`,
		`task "cat_1" argument name "cat_1" mismatch`,
	}},
	{"unsupported_type", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Type = "transfer"
	}), []string{
		`task "cat_1" has unsupported type "transfer"`,
	}},
	{"zero_cores", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Cores = 0
	}), []string{
		`task "cat_1" has cores 0`,
	}},
	{"bad_file_link", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Files[0].Link = "inout"
	}), []string{
		`task "cat_1" file "blast_1_out.txt" has link "inout"`,
	}},
	{"negative_file_size", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Files[0].SizeInBytes = -5
	}), []string{
		`task "cat_1" file "blast_1_out.txt" has negative size`,
	}},
	{"unknown_parent", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Parents = append(w.Tasks["cat_1"].Parents, "ghost")
	}), []string{
		`task "cat_1" lists unknown parent "ghost"`,
	}},
	{"unknown_child", mutate(func(w *Workflow) {
		w.Tasks["cat_1"].Children = []string{"ghost"}
	}), []string{
		`task "cat_1" lists unknown child "ghost"`,
	}},
	{"duplicate_producer", mutate(func(w *Workflow) {
		b2 := w.Tasks["blastall_2"]
		b2.Files = append(b2.Files, File{Link: LinkOutput, Name: "blast_1_out.txt", SizeInBytes: 1})
	}), []string{
		`file "blast_1_out.txt" produced by both "blastall_1" and "blastall_2"`,
	}},
	{"sibling_input", mutate(func(w *Workflow) {
		b2 := w.Tasks["blastall_2"]
		b2.Files = append(b2.Files, File{Link: LinkInput, Name: "blast_1_out.txt", SizeInBytes: 1})
	}), []string{
		`task "blastall_2" input "blast_1_out.txt" produced by non-ancestor "blastall_1"`,
	}},
	{"descendant_input", mutate(func(w *Workflow) {
		s := w.Tasks["split_fasta_1"]
		s.Files = append(s.Files, File{Link: LinkInput, Name: "final.txt", SizeInBytes: 1})
	}), []string{
		`task "split_fasta_1" input "final.txt" produced by non-ancestor "cat_1"`,
	}},
	{"two_bad_inputs_sorted_by_file", mutate(func(w *Workflow) {
		b2 := w.Tasks["blastall_2"]
		b2.Files = append(b2.Files,
			File{Link: LinkInput, Name: "final.txt", SizeInBytes: 1},
			File{Link: LinkInput, Name: "blast_1_out.txt", SizeInBytes: 1})
	}), []string{
		`task "blastall_2" input "blast_1_out.txt" produced by non-ancestor "blastall_1"`,
		`task "blastall_2" input "final.txt" produced by non-ancestor "cat_1"`,
	}},
	{"unlinked_producer", func(t testing.TB) *Workflow {
		w := New("sideways")
		w.AddTask(BuildTask("a", "x", nil, map[string]int64{"fa": 1}))
		w.AddTask(BuildTask("b", "x", []string{"fa"}, map[string]int64{"fb": 1}))
		return w
	}, []string{
		`task "b" input "fa" produced by non-ancestor "a"`,
	}},
	{"self_edge", func(t testing.TB) *Workflow {
		w := chain(t, "a", "b")
		w.Tasks["b"].Children = []string{"b"}
		w.Tasks["b"].Parents = []string{"a", "b"}
		return w
	}, []string{
		`dag: self edge on "b"`,
	}},
	{"problems_in_several_tasks", mutate(func(w *Workflow) {
		w.Tasks["split_fasta_1"].Cores = -1
		w.Tasks["blastall_2"].Type = ""
		w.Tasks["cat_1"].Children = []string{"ghost"}
	}), []string{
		`task "blastall_2" has unsupported type ""`,
		`task "cat_1" lists unknown child "ghost"`,
		`task "split_fasta_1" has cores -1`,
	}},
}

// cyclicFixtures are rejected with one problem naming one real cycle;
// which cycle, and which rotation of it, is not part of the contract.
var cyclicFixtures = []fixture{
	{name: "cycle_through_whole_workflow", build: mutate(func(w *Workflow) {
		w.Link("cat_1", "split_fasta_1")
	})},
	{name: "two_cycle", build: func(t testing.TB) *Workflow {
		w := chain(t, "a", "b")
		w.Link("b", "a")
		return w
	}},
	{name: "cycle_with_tail", build: func(t testing.TB) *Workflow {
		w := chain(t, "root", "a", "b", "c", "tail")
		w.Link("c", "a")
		return w
	}},
}

func problemsOf(t *testing.T, err error) []string {
	t.Helper()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *ValidationError", err)
	}
	return ve.Problems
}

func TestValidateProblemsUnchanged(t *testing.T) {
	for _, fx := range brokenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			w := fx.build(t)
			if got := problemsOf(t, w.Validate()); !slices.Equal(got, fx.want) {
				t.Fatalf("problems = %q\nwant       %q", got, fx.want)
			}
			if csr, tasks, ext, err := w.ValidateCompile(); err == nil || csr != nil || tasks != nil || ext != nil {
				t.Fatalf("ValidateCompile returned a graph for an invalid workflow (err = %v)", err)
			}
		})
	}
}

func TestValidateReportsRealCycle(t *testing.T) {
	for _, fx := range cyclicFixtures {
		t.Run(fx.name, func(t *testing.T) {
			w := fx.build(t)
			probs := problemsOf(t, w.Validate())
			const prefix = "dag: cycle detected: ["
			if len(probs) != 1 || !strings.HasPrefix(probs[0], prefix) {
				t.Fatalf("problems = %q, want one cycle report", probs)
			}
			cycle := strings.Fields(strings.TrimSuffix(strings.TrimPrefix(probs[0], prefix), "]"))
			if len(cycle) < 2 {
				t.Fatalf("cycle %v too short", cycle)
			}
			for i, v := range cycle {
				next := cycle[(i+1)%len(cycle)]
				if w.Tasks[v] == nil || !slices.Contains(w.Tasks[v].Children, next) {
					t.Fatalf("reported cycle %v has no edge %s->%s", cycle, v, next)
				}
			}
			// Structure-only Compile surfaces the typed error.
			var ce *dag.CycleError
			if _, _, err := w.Compile(); !errors.As(err, &ce) {
				t.Fatalf("Compile err = %v, want *dag.CycleError", err)
			}
		})
	}
}

// TestValidateNullTask: JSON can spell a task as null; that is a
// problem to report, not a nil dereference.
func TestValidateNullTask(t *testing.T) {
	w, err := Parse([]byte(`{"name":"n","tasks":{"a":null}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := problemsOf(t, w.Validate()), []string{`task "a" is null`}; !slices.Equal(got, want) {
		t.Fatalf("problems = %q, want %q", got, want)
	}
	if _, _, err := w.Compile(); err == nil {
		t.Fatal("Compile accepted a null task")
	}
}

// TestValidateCompileMatchesCompile: for a valid workflow the validated
// graph is the one Compile builds, and the staging manifest that comes
// with it is ExternalInputs.
func TestValidateCompileMatchesCompile(t *testing.T) {
	for _, w := range sevenRecipes(t, 60) {
		vc, vt, ext, err := w.ValidateCompile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if want := w.ExternalInputs(); len(ext) == 0 || !slices.Equal(ext, want) {
			t.Fatalf("%s: external inputs %v, ExternalInputs() %v", w.Name, ext, want)
		}
		c, ct, err := w.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vt, ct) || !slices.Equal(vc.TopoOrder(), c.TopoOrder()) || vc.EdgeCount() != c.EdgeCount() {
			t.Fatalf("%s: ValidateCompile and Compile disagree", w.Name)
		}
	}
}

func sevenRecipes(t testing.TB, tasks int) []*Workflow {
	t.Helper()
	var out []*Workflow
	for _, name := range recipes.Names() {
		r, err := recipes.ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := r.Generate(tasks, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// TestComputeStatsMatchesMapGraph pins ComputeStats on the seven recipes
// (60 tasks, seed 1) to the values the map-graph implementation gave,
// and requires the critical path to be the same on every call — the map
// graph picked among tied parents in map-iteration order.
func TestComputeStatsMatchesMapGraph(t *testing.T) {
	want := []struct {
		recipe              string
		edges, phases       int
		widths              []int
		criticalSeconds     float64
		pathFirst, pathLast string
		pathLen             int
	}{
		{"blast", 171, 3, []int{1, 57, 2}, 2.7199282002845986, "split_fasta_00000001", "cat_blast_00000059", 3},
		{"bwa", 169, 4, []int{2, 56, 1, 1}, 3.2646949470505784, "bwa_index_00000001", "cat_00000060", 4},
		{"cycles", 111, 9, []int{1, 26, 1, 1, 1, 27, 1, 1, 1}, 6.664815734930411, "baseline_cycles_00000001", "cycles_plots_00000060", 9},
		{"epigenomics", 74, 9, []int{2, 14, 14, 14, 14, 2, 1, 1, 1}, 6.805374940637752, "fastq_split_00000001", "pileup_00000063", 9},
		{"genomes", 62, 3, []int{55, 1, 4}, 2.7655802071421176, "individuals_00000028", "frequency_00000060", 3},
		{"seismology", 59, 2, []int{59, 1}, 1.8463143017124999, "sg1_iter_decon_00000028", "wrapper_sift_stf_by_misfit_00000060", 2},
		{"srasearch", 78, 4, []int{20, 20, 19, 1}, 2.8693619080431754, "prefetch_00000044", "merge_00000060", 4},
	}
	for i, w := range sevenRecipes(t, 60) {
		exp := want[i]
		var first []string
		for run := 0; run < 20; run++ {
			s, err := w.ComputeStats()
			if err != nil {
				t.Fatal(err)
			}
			if s.Edges != exp.edges || s.Phases != exp.phases || !slices.Equal(s.PhaseWidths, exp.widths) ||
				s.CriticalPathSeconds != exp.criticalSeconds {
				t.Fatalf("%s: edges=%d phases=%d widths=%v critical=%v, want %+v",
					exp.recipe, s.Edges, s.Phases, s.PhaseWidths, s.CriticalPathSeconds, exp)
			}
			p := s.CriticalPath
			if len(p) != exp.pathLen || p[0] != exp.pathFirst || p[len(p)-1] != exp.pathLast {
				t.Fatalf("%s: critical path %v, want %d tasks %s..%s", exp.recipe, p, exp.pathLen, exp.pathFirst, exp.pathLast)
			}
			if run == 0 {
				first = p
			} else if !slices.Equal(p, first) {
				t.Fatalf("%s: critical path differs between calls: %v vs %v", exp.recipe, first, p)
			}
		}
	}
}

// TestComputeStatsTiedParentsDeterministic: both arms of an equal-weight
// diamond tie for the critical path; the answer must not depend on the
// call.
func TestComputeStatsTiedParentsDeterministic(t *testing.T) {
	w := MiniBlast(t)
	for _, task := range w.Tasks {
		task.RuntimeInSeconds = 1
	}
	want := []string{"split_fasta_1", "blastall_1", "cat_1"} // lowest-named parent wins
	for run := 0; run < 20; run++ {
		s, err := w.ComputeStats()
		if err != nil {
			t.Fatal(err)
		}
		if s.CriticalPathSeconds != 3 || !slices.Equal(s.CriticalPath, want) {
			t.Fatalf("run %d: path=%v seconds=%v, want %v / 3", run, s.CriticalPath, s.CriticalPathSeconds, want)
		}
	}
}

// FuzzParseValidate feeds Parse → Validate the bytes POST /v1/runs
// accepts from the network. Whatever they spell, nothing panics, and a
// workflow Validate accepts compiles and has phases that partition its
// tasks.
func FuzzParseValidate(f *testing.F) {
	seeds := sevenRecipes(f, 12)
	for _, fx := range append(brokenFixtures, cyclicFixtures...) {
		seeds = append(seeds, fx.build(f))
	}
	for _, w := range seeds {
		data, err := w.MarshalCompact()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"tasks":{"a":null}}`))
	f.Add([]byte(`{"tasks":{"a":{"name":"a","parents":["a"],"children":["a"]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := Parse(data)
		if err != nil {
			return
		}
		_, _, compileErr := w.Compile() // must not panic, valid or not
		if w.Validate() != nil {
			return
		}
		if compileErr != nil {
			t.Fatalf("Validate accepted, Compile rejected: %v", compileErr)
		}
		phases, err := w.Phases()
		if err != nil {
			t.Fatalf("Validate accepted, Phases rejected: %v", err)
		}
		seen := map[string]bool{}
		for _, phase := range phases {
			for _, n := range phase {
				if seen[n] || w.Tasks[n] == nil {
					t.Fatalf("phases %v repeat or invent task %q", phases, n)
				}
				seen[n] = true
			}
		}
		if len(seen) != w.Len() {
			t.Fatalf("phases cover %d of %d tasks", len(seen), w.Len())
		}
	})
}
