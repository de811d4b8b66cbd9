package wfformat

import "testing"

func fpWorkflow() *Workflow {
	w := New("fp-test")
	a := &Task{
		Name: "a", Type: TypeCompute, Category: "stage", Cores: 2, RuntimeInSeconds: 1.5,
		Command: Command{
			Program: "wfbench",
			Arguments: []Argument{{
				Name: "a", PercentCPU: 0.6, CPUWork: 100, MemBytes: 1 << 20,
				Out: map[string]int64{"a_out.txt": 128, "a_aux.txt": 64}, Inputs: []string{"seed.txt"},
			}},
			APIURL: "http://host-one/a",
		},
		Files: []File{
			{Link: LinkOutput, Name: "a_out.txt", SizeInBytes: 128},
			{Link: LinkOutput, Name: "a_aux.txt", SizeInBytes: 64},
			{Link: LinkInput, Name: "seed.txt", SizeInBytes: 32},
		},
	}
	b := &Task{
		Name: "b", Type: TypeCompute, Category: "stage", Cores: 1, RuntimeInSeconds: 2,
		Command: Command{Program: "wfbench", Arguments: []Argument{{Name: "b", CPUWork: 50, Out: map[string]int64{"b_out.txt": 16}}}},
		Files:   []File{{Link: LinkInput, Name: "a_out.txt", SizeInBytes: 128}, {Link: LinkOutput, Name: "b_out.txt", SizeInBytes: 16}},
	}
	w.AddTask(a)
	w.AddTask(b)
	w.Link("a", "b")
	return w
}

func TestFingerprintDeterministic(t *testing.T) {
	h1 := Fingerprint(fpWorkflow())
	h2 := Fingerprint(fpWorkflow())
	if h1 != h2 {
		t.Fatalf("same workflow hashed differently: %s vs %s", h1, h2)
	}
	if h1.IsZero() {
		t.Fatal("fingerprint is zero")
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	base := Fingerprint(fpWorkflow())

	// Reorder everything with a defined set semantics: files, parents,
	// children, argument inputs. The content is identical.
	w := fpWorkflow()
	a := w.Tasks["a"]
	a.Files[0], a.Files[2] = a.Files[2], a.Files[0]
	a.Command.Arguments[0].Inputs = append([]string(nil), a.Command.Arguments[0].Inputs...)
	b := w.Tasks["b"]
	b.Files[0], b.Files[1] = b.Files[1], b.Files[0]
	if got := Fingerprint(w); got != base {
		t.Fatalf("reordered slices changed fingerprint: %s vs %s", got, base)
	}
}

func TestFingerprintIgnoresDeploymentMetadata(t *testing.T) {
	base := Fingerprint(fpWorkflow())
	w := fpWorkflow()
	w.Description = "a different description"
	w.CreatedAt = "2026-08-07T00:00:00Z"
	for _, tk := range w.Tasks {
		tk.Command.APIURL = "http://another-deployment/" + tk.Name
		tk.ID = "0000123"
		tk.StartedAt = "2026-08-07T01:02:03Z"
	}
	if got := Fingerprint(w); got != base {
		t.Fatalf("deployment metadata changed fingerprint: %s vs %s", got, base)
	}
}

func TestFingerprintSensitiveToContent(t *testing.T) {
	base := Fingerprint(fpWorkflow())
	mutations := map[string]func(w *Workflow){
		"workflow name":   func(w *Workflow) { w.Name = "other" },
		"task added":      func(w *Workflow) { w.AddTask(&Task{Name: "c", Type: TypeCompute}) },
		"cpu work":        func(w *Workflow) { w.Tasks["a"].Command.Arguments[0].CPUWork = 101 },
		"output size":     func(w *Workflow) { w.Tasks["a"].Files[0].SizeInBytes++ },
		"edge removed":    func(w *Workflow) { w.Tasks["a"].Children = nil; w.Tasks["b"].Parents = nil },
		"cores":           func(w *Workflow) { w.Tasks["b"].Cores = 8 },
		"out file sizes":  func(w *Workflow) { w.Tasks["a"].Command.Arguments[0].Out["a_out.txt"]++ },
		"category":        func(w *Workflow) { w.Tasks["b"].Category = "other-stage" },
		"input file name": func(w *Workflow) { w.Tasks["a"].Command.Arguments[0].Inputs[0] = "seed2.txt" },
	}
	for name, mutate := range mutations {
		w := fpWorkflow()
		mutate(w)
		if Fingerprint(w) == base {
			t.Errorf("%s: mutation did not change fingerprint", name)
		}
	}
}

func TestFingerprintFieldBoundaries(t *testing.T) {
	// Length prefixes must keep adjacent strings from colliding.
	w1 := New("x")
	w1.AddTask(&Task{Name: "ab", Type: "c"})
	w2 := New("x")
	w2.AddTask(&Task{Name: "a", Type: "bc"})
	if Fingerprint(w1) == Fingerprint(w2) {
		t.Fatal("adjacent string fields collided")
	}
}
