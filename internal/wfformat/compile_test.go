package wfformat

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

func TestCompileAlignsTasksAndEdges(t *testing.T) {
	w := miniBlast(t)
	csr, tasks, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if csr.Len() != w.Len() || len(tasks) != w.Len() {
		t.Fatalf("compiled %d/%d tasks, want %d", csr.Len(), len(tasks), w.Len())
	}
	// IDs follow sorted name order and the task slice is ID-aligned.
	names := w.TaskNames()
	for i, n := range names {
		id, ok := csr.ID(n)
		if !ok || int(id) != i {
			t.Fatalf("ID(%q) = %d,%v, want %d", n, id, ok, i)
		}
		if tasks[id].Name != n {
			t.Fatalf("tasks[%d].Name = %q, want %q", id, tasks[id].Name, n)
		}
	}
	// Edges mirror the parents/children entries.
	edges := 0
	for _, n := range names {
		id, _ := csr.ID(n)
		var children []string
		for _, c := range csr.Children(id) {
			children = append(children, csr.Name(c))
		}
		want := slices.Clone(w.Tasks[n].Children)
		slices.Sort(want)
		if !slices.Equal(children, want) {
			t.Fatalf("%s children = %v, want %v", n, children, want)
		}
		edges += len(want)
	}
	if csr.EdgeCount() != edges {
		t.Fatalf("CSR edges = %d, children entries = %d", csr.EdgeCount(), edges)
	}
}

func TestCompileRejectsUnknownChild(t *testing.T) {
	w := New("broken")
	task := buildTask("a", "x", nil, map[string]int64{"o": 1})
	task.Children = []string{"ghost"}
	if err := w.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Compile(); err == nil {
		t.Fatal("unknown child accepted")
	}
}

// TestPhasesMatchGraphLevels checks Phases against the definition read
// straight off the parents entries: roots are phase 0, every other task
// is one past its deepest parent.
func TestPhasesMatchGraphLevels(t *testing.T) {
	for _, w := range []*Workflow{miniBlast(t), randomFanout(rand.New(rand.NewSource(7)))} {
		phases, err := w.Phases()
		if err != nil {
			t.Fatal(err)
		}
		var level func(n string) int
		level = func(n string) int {
			l := 0
			for _, p := range w.Tasks[n].Parents {
				l = max(l, level(p)+1)
			}
			return l
		}
		var want [][]string
		for _, n := range w.TaskNames() { // sorted, so each level is too
			l := level(n)
			for len(want) <= l {
				want = append(want, nil)
			}
			want[l] = append(want[l], n)
		}
		if !reflect.DeepEqual(phases, want) {
			t.Fatalf("Phases = %v, want %v", phases, want)
		}
	}
}

func TestMarshalCompactRoundTrips(t *testing.T) {
	w := miniBlast(t)
	compact, err := w.MarshalCompact()
	if err != nil {
		t.Fatal(err)
	}
	pretty, err := w.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) >= len(pretty) {
		t.Fatalf("compact (%d bytes) not smaller than indented (%d bytes)", len(compact), len(pretty))
	}
	if bytes.ContainsRune(compact, '\n') {
		t.Fatal("compact output contains newlines")
	}
	// Both encodings describe the same workflow.
	var a, b any
	if err := json.Unmarshal(compact, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pretty, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("compact and indented encodings disagree")
	}
	got, err := Parse(compact)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Len() {
		t.Fatalf("round trip lost tasks: %d vs %d", got.Len(), w.Len())
	}
}

func TestSaveCompactLoads(t *testing.T) {
	w := miniBlast(t)
	path := filepath.Join(t.TempDir(), "wf.json")
	if err := w.SaveCompact(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Len() || got.Name != w.Name {
		t.Fatalf("loaded %q with %d tasks", got.Name, got.Len())
	}
}

// TestValidateTransitiveProducerStillAccepted pins the Validate fast
// path: a file produced by a grandparent (transitive ancestor, not a
// direct parent) must still validate via the reachability fallback.
func TestValidateTransitiveProducerStillAccepted(t *testing.T) {
	w := New("transitive")
	a := buildTask("a", "x", nil, map[string]int64{"fa": 1})
	b := buildTask("b", "x", []string{"fa"}, map[string]int64{"fb": 1})
	// c consumes fa, produced by grandparent a — legal: a is an ancestor.
	c := buildTask("c", "x", []string{"fb", "fa"}, map[string]int64{"fc": 1})
	for _, task := range []*Task{a, b, c} {
		if err := w.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Link("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := w.Link("b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("transitive producer rejected: %v", err)
	}
}

// TestValidateNonAncestorProducerRejected pins the failing side: a file
// produced by an unrelated task must still be flagged.
func TestValidateNonAncestorProducerRejected(t *testing.T) {
	w := New("sideways")
	a := buildTask("a", "x", nil, map[string]int64{"fa": 1})
	b := buildTask("b", "x", []string{"fa"}, map[string]int64{"fb": 1})
	for _, task := range []*Task{a, b} {
		if err := w.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	// No a -> b link: a is not an ancestor of b, so b reading fa is
	// a dependency the DAG does not order.
	if err := w.Validate(); err == nil {
		t.Fatal("non-ancestor producer accepted")
	}
}
