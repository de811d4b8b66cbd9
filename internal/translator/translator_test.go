package translator

import (
	"math/rand"
	"strings"
	"testing"

	"wfserverless/internal/recipes"
	"wfserverless/internal/wfformat"
)

func sampleWorkflow(t *testing.T) *wfformat.Workflow {
	t.Helper()
	r, err := recipes.ForName("blast")
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.Generate(10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestKnativeSetsAPIURLAndWorkdir(t *testing.T) {
	w := sampleWorkflow(t)
	out, err := Knative(w, KnativeOptions{IngressURL: "http://127.0.0.1:9000/", Workdir: "/data/wf"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range out.TaskNames() {
		task := out.Tasks[name]
		if task.Command.APIURL != "http://127.0.0.1:9000/wfbench/wfbench" {
			t.Fatalf("APIURL = %q", task.Command.APIURL)
		}
		if task.Command.Arguments[0].Workdir != "/data/wf" {
			t.Fatalf("Workdir = %q", task.Command.Arguments[0].Workdir)
		}
	}
	// original untouched
	for _, name := range w.TaskNames() {
		if w.Tasks[name].Command.APIURL != "" {
			t.Fatal("translator mutated its input")
		}
	}
}

func TestKnativeServicePerCategory(t *testing.T) {
	w := sampleWorkflow(t)
	out, err := Knative(w, KnativeOptions{IngressURL: "http://ingress", Service: func(t *wfformat.Task) string {
		return "wfbench-" + t.Category
	}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range out.TaskNames() {
		task := out.Tasks[name]
		want := "http://ingress/wfbench-" + task.Category + "/wfbench"
		if task.Command.APIURL != want {
			t.Fatalf("APIURL = %q, want %q", task.Command.APIURL, want)
		}
		seen[task.Category] = true
	}
	if len(seen) < 3 {
		t.Fatalf("expected several categories, saw %v", seen)
	}
}

func TestKnativeRequiresIngress(t *testing.T) {
	if _, err := Knative(sampleWorkflow(t), KnativeOptions{}); err == nil {
		t.Fatal("missing IngressURL accepted")
	}
}

func TestLocalContainerBaseURL(t *testing.T) {
	w := sampleWorkflow(t)
	out, err := LocalContainer(w, LocalContainerOptions{BaseURL: "http://localhost:80/", Workdir: "/mnt/data"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range out.TaskNames() {
		task := out.Tasks[name]
		if task.Command.APIURL != "http://localhost:80/wfbench" {
			t.Fatalf("APIURL = %q", task.Command.APIURL)
		}
	}
}

func TestLocalContainerPerTaskURL(t *testing.T) {
	w := sampleWorkflow(t)
	out, err := LocalContainer(w, LocalContainerOptions{
		ContainerURL: func(task *wfformat.Task) string { return "http://c-" + task.Category + ":8080/wfbench" },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range out.TaskNames() {
		task := out.Tasks[name]
		if !strings.HasPrefix(task.Command.APIURL, "http://c-"+task.Category) {
			t.Fatalf("APIURL = %q", task.Command.APIURL)
		}
	}
}

func TestLocalContainerRequiresURL(t *testing.T) {
	if _, err := LocalContainer(sampleWorkflow(t), LocalContainerOptions{}); err == nil {
		t.Fatal("missing URL accepted")
	}
}

func TestPegasusOutput(t *testing.T) {
	w := sampleWorkflow(t)
	out, err := Pegasus(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"name: Blast", "jobs:", "jobDependencies:", "lfn:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Pegasus output missing %q:\n%s", want, out[:200])
		}
	}
	// every task appears as a job id
	for _, name := range w.TaskNames() {
		if !strings.Contains(out, "id: "+name) {
			t.Fatalf("job %s missing", name)
		}
	}
}

func TestPegasusRejectsInvalid(t *testing.T) {
	w := wfformat.New("bad")
	w.AddTask(&wfformat.Task{Name: "t", Type: "weird", Cores: 1})
	if _, err := Pegasus(w); err == nil {
		t.Fatal("invalid workflow translated")
	}
}

func TestNextflowOutput(t *testing.T) {
	w := sampleWorkflow(t)
	out, err := Nextflow(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nextflow.enable.dsl=2", "process blastall", "process split_fasta", "workflow {", "// phase 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Nextflow output missing %q", want)
		}
	}
}

func TestNextflowRejectsInvalid(t *testing.T) {
	w := wfformat.New("bad")
	w.AddTask(&wfformat.Task{Name: "t", Type: "weird", Cores: 1})
	if _, err := Nextflow(w); err == nil {
		t.Fatal("invalid workflow translated")
	}
}

func TestSanitizeIdent(t *testing.T) {
	cases := map[string]string{
		"map":       "map",
		"sg1-decon": "sg1_decon",
		"a.b c":     "a_b_c",
		"":          "p",
	}
	for in, want := range cases {
		if got := sanitizeIdent(in); got != want {
			t.Errorf("sanitizeIdent(%q) = %q, want %q", in, got, want)
		}
	}
}
