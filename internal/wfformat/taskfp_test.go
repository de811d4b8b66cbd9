package wfformat

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"wfserverless/internal/dag"
)

// fpRandomWorkflow builds a layered random DAG: each non-root task
// reads the outputs of up to two random tasks from the previous layer,
// every task additionally reads one shared external input.
func fpRandomWorkflow(t *testing.T, tasks, width int, seed int64) *Workflow {
	t.Helper()
	w := New("taskfp-random")
	rng := rand.New(rand.NewSource(seed))
	var prev []string
	for i := 0; i < tasks; {
		layer := 1 + rng.Intn(width)
		if layer > tasks-i {
			layer = tasks - i
		}
		var cur []string
		for k := 0; k < layer; k++ {
			name := fmt.Sprintf("task_%05d", i)
			out := fmt.Sprintf("out_%05d", i)
			i++
			var parents []string
			if len(prev) > 0 {
				for _, pi := range rng.Perm(len(prev))[:1+rng.Intn(min(2, len(prev)))] {
					parents = append(parents, prev[pi])
				}
			}
			files := []File{
				{Link: LinkOutput, Name: out, SizeInBytes: 10},
				{Link: LinkInput, Name: "ext_seed", SizeInBytes: 5},
			}
			var inputs []string
			for _, p := range parents {
				in := "out_" + p[len("task_"):]
				files = append(files, File{Link: LinkInput, Name: in, SizeInBytes: 10})
				inputs = append(inputs, in)
			}
			task := &Task{
				Name: name, Type: TypeCompute, Category: "synthetic", Cores: 1,
				RuntimeInSeconds: 0.1,
				Command: Command{
					Program: "wfbench",
					Arguments: []Argument{{
						Name: name, PercentCPU: 0.5, CPUWork: 100,
						Out: map[string]int64{out: 10}, Inputs: inputs,
					}},
					APIURL: "http://host/wfbench",
				},
				Files: files,
			}
			if err := w.AddTask(task); err != nil {
				t.Fatal(err)
			}
			for _, p := range parents {
				if err := w.Link(p, name); err != nil {
					t.Fatal(err)
				}
			}
			cur = append(cur, name)
		}
		prev = cur
	}
	return w
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func compileFPs(t *testing.T, w *Workflow, ext func(string, int64) uint64) (map[string]Hash, map[string][]string) {
	t.Helper()
	csr, tasks, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fps := TaskFingerprints(csr, tasks, ext)
	byName := make(map[string]Hash, len(tasks))
	children := make(map[string][]string, len(tasks))
	for id, task := range tasks {
		byName[task.Name] = fps[id]
		for _, cid := range csr.Children(int32(id)) {
			children[task.Name] = append(children[task.Name], tasks[cid].Name)
		}
	}
	return byName, children
}

// descendants returns the transitive closure below name, excluding it.
func descendants(children map[string][]string, name string) map[string]bool {
	seen := make(map[string]bool)
	var walk func(string)
	walk = func(n string) {
		for _, c := range children[n] {
			if !seen[c] {
				seen[c] = true
				walk(c)
			}
		}
	}
	walk(name)
	return seen
}

// TestTaskFingerprintsEditScope is the property the whole memoization
// layer rests on: perturbing one task changes exactly that task's and
// its descendants' fingerprints, for every task of random DAGs.
func TestTaskFingerprintsEditScope(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := fpRandomWorkflow(t, 60, 8, seed)
		base, children := compileFPs(t, w, nil)
		for _, victim := range w.TaskNames() {
			edited := fpRandomWorkflow(t, 60, 8, seed)
			edited.Tasks[victim].Command.Arguments[0].CPUWork += 17
			got, _ := compileFPs(t, edited, nil)
			want := descendants(children, victim)
			want[victim] = true
			for name, fp := range got {
				changed := fp != base[name]
				if changed != want[name] {
					t.Fatalf("seed %d, edit %s: task %s changed=%v, want %v",
						seed, victim, name, changed, want[name])
				}
			}
		}
	}
}

// TestTaskFingerprintsOrderIndependent reorders every set-semantics
// slice (files, argument inputs, parents, children) and expects
// identical fingerprints for every task.
func TestTaskFingerprintsOrderIndependent(t *testing.T) {
	w := fpRandomWorkflow(t, 40, 6, 7)
	base, _ := compileFPs(t, w, nil)
	shuffled := fpRandomWorkflow(t, 40, 6, 7)
	rng := rand.New(rand.NewSource(99))
	for _, task := range shuffled.Tasks {
		rng.Shuffle(len(task.Files), func(i, k int) {
			task.Files[i], task.Files[k] = task.Files[k], task.Files[i]
		})
		in := task.Command.Arguments[0].Inputs
		rng.Shuffle(len(in), func(i, k int) { in[i], in[k] = in[k], in[i] })
		rng.Shuffle(len(task.Parents), func(i, k int) {
			task.Parents[i], task.Parents[k] = task.Parents[k], task.Parents[i]
		})
		rng.Shuffle(len(task.Children), func(i, k int) {
			task.Children[i], task.Children[k] = task.Children[k], task.Children[i]
		})
	}
	got, _ := compileFPs(t, shuffled, nil)
	for name, fp := range got {
		if fp != base[name] {
			t.Fatalf("task %s: fingerprint changed under slice reordering", name)
		}
	}
}

// TestTaskFingerprintsIgnoreDeployment: retargeting the workflow at
// another deployment (api_url, per-run IDs) keeps every fingerprint.
func TestTaskFingerprintsIgnoreDeployment(t *testing.T) {
	w := fpRandomWorkflow(t, 30, 5, 11)
	base, _ := compileFPs(t, w, nil)
	moved := fpRandomWorkflow(t, 30, 5, 11)
	for _, task := range moved.Tasks {
		task.Command.APIURL = "http://elsewhere/" + task.Name
		task.ID = "42"
		task.StartedAt = "2026-08-08T00:00:00Z"
	}
	got, _ := compileFPs(t, moved, nil)
	for name, fp := range got {
		if fp != base[name] {
			t.Fatalf("task %s: deployment metadata changed fingerprint", name)
		}
	}
}

// TestTaskFingerprintsExternalInputs: a changed external-input content
// address invalidates exactly the tasks that read the file and their
// descendants; ext receives the declared size.
func TestTaskFingerprintsExternalInputs(t *testing.T) {
	w := fpRandomWorkflow(t, 40, 6, 13)
	sawSize := false
	extA := func(name string, size int64) uint64 {
		if name == "ext_seed" && size == 5 {
			sawSize = true
		}
		return 1
	}
	extB := func(name string, size int64) uint64 { return 2 }
	base, _ := compileFPs(t, w, extA)
	if !sawSize {
		t.Fatal("ext never saw the declared external input")
	}
	got, _ := compileFPs(t, w, extB)
	// Every task reads ext_seed directly, so every fingerprint moves.
	for name, fp := range got {
		if fp == base[name] {
			t.Fatalf("task %s: external content address change did not invalidate", name)
		}
	}
	// Intermediate outputs are not external: ext must never be asked
	// about a produced file.
	ext := func(name string, size int64) uint64 {
		if name != "ext_seed" {
			t.Fatalf("ext consulted for produced file %q", name)
		}
		return 3
	}
	compileFPs(t, w, ext)
}

// seqTaskFingerprints is TaskFingerprints as one pass over the
// topological order with one digester: the reference the level-parallel
// pass must equal.
func seqTaskFingerprints(c *dag.CSR, tasks []*Task, ext func(string, int64) uint64) []Hash {
	fps := make([]Hash, len(tasks))
	produced := make(map[string]bool)
	for _, t := range tasks {
		for _, f := range t.Files {
			produced[f.Name] = produced[f.Name] || f.Link == LinkOutput
		}
	}
	d := newDigester()
	for _, id := range c.TopoOrder() {
		for _, f := range d.task(tasks[id], false) {
			if f.Link == LinkInput && !produced[f.Name] {
				d.str(f.Name)
				d.num(ext(f.Name, f.SizeInBytes))
			}
		}
		d.num(uint64(len(c.Parents(id))))
		for _, pid := range c.Parents(id) {
			d.hash(&fps[pid])
		}
		fps[id] = d.sum()
	}
	return fps
}

// TestTaskFingerprintsLevelParallel: with three levels wider than
// dag.Split's threshold (8,192 tasks), hashed by four workers, every
// fingerprint equals the sequential reference's. The middle level joins
// pairs of roots and the last pairs of middle tasks (diamonds), the last
// also reads its grandparent's output (a transitive producer), roots
// read external inputs that are staged (ext knows a content address) or
// not, and some tasks write two files. Names run against the levels, so
// the ID order is not the level order.
func TestTaskFingerprintsLevelParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const width = 9000
	w := New("taskfp-wide")
	add := func(name string, parents, reads []string, outs int) {
		files := []File{{Link: LinkInput, Name: "ext_seed", SizeInBytes: 5}}
		out := map[string]int64{}
		for k := range outs {
			o := fmt.Sprintf("out%d_%s", k, name)
			out[o] = int64(10 + k)
			files = append(files, File{Link: LinkOutput, Name: o, SizeInBytes: int64(10 + k)})
		}
		for _, in := range reads {
			files = append(files, File{Link: LinkInput, Name: in, SizeInBytes: 10})
		}
		task := &Task{Name: name, Type: TypeCompute, Cores: 1, Files: files, Command: Command{Program: "wfbench",
			Arguments: []Argument{{Name: name, PercentCPU: 0.5, CPUWork: 100, Out: out, Inputs: reads}}}}
		if err := w.AddTask(task); err != nil {
			t.Fatal(err)
		}
		for _, p := range parents {
			if err := w.Link(p, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	root := func(i int) string { return fmt.Sprintf("z_root_%05d", i%width) }
	mid := func(i int) string { return fmt.Sprintf("m_mid_%05d", i%width) }
	staged := make(map[string]uint64)
	for i := range width {
		ext := fmt.Sprintf("ext_plain_%05d", i)
		if i%2 == 0 {
			ext = fmt.Sprintf("ext_staged_%05d", i)
			staged[ext] = uint64(i) * 0x9e3779b97f4a7c15
		}
		add(root(i), nil, []string{ext}, 1+i%2)
	}
	for i := range width {
		add(mid(i), []string{root(i), root(i + 1)}, []string{"out0_" + root(i), "out0_" + root(i+1)}, 1)
	}
	for i := range width {
		add(fmt.Sprintf("a_sink_%05d", i), []string{mid(i), mid(i + 1)},
			[]string{"out0_" + mid(i), "out0_" + mid(i+1), "out0_" + root(i)}, 1+i%3)
	}
	csr, tasks, _, err := w.ValidateCompile()
	if err != nil {
		t.Fatal(err)
	}
	if csr.NumLevels() != 3 {
		t.Fatalf("%d levels, want 3", csr.NumLevels())
	}
	ext := func(name string, size int64) uint64 {
		if h, ok := staged[name]; ok {
			return h
		}
		return uint64(size) + uint64(len(name))<<32
	}
	got, want := TaskFingerprints(csr, tasks, ext), seqTaskFingerprints(csr, tasks, ext)
	if i := slices.IndexFunc(want, func(h Hash) bool { return h.IsZero() }); i >= 0 {
		t.Fatalf("reference left %s unhashed", tasks[i].Name)
	}
	for id := range want {
		if got[id] != want[id] {
			t.Fatalf("%s: fingerprint %s, sequential %s", tasks[id].Name, got[id], want[id])
		}
	}
}

func BenchmarkTaskFingerprints(b *testing.B) {
	w := New("bench")
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("task_%05d", i)
		task := &Task{
			Name: name, Type: TypeCompute, Cores: 1,
			Command: Command{Program: "wfbench",
				Arguments: []Argument{{Name: name, Out: map[string]int64{"out_" + name: 1}}}},
			Files: []File{{Link: LinkOutput, Name: "out_" + name, SizeInBytes: 1}},
		}
		if err := w.AddTask(task); err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			if err := w.Link(fmt.Sprintf("task_%05d", i-1), name); err != nil {
				b.Fatal(err)
			}
		}
	}
	csr, tasks, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TaskFingerprints(csr, tasks, nil)
	}
}
