package wfformat

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// reversedDocument renders w as compact JSON with its tasks listed in
// reverse name order, which Marshal (sorted map keys) never writes.
func reversedDocument(t testing.TB, w *Workflow) []byte {
	t.Helper()
	name, err := json.Marshal(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	doc := append([]byte(`{"name":`), name...)
	doc = append(doc, `,"tasks":{`...)
	names := w.TaskNames()
	slices.Reverse(names)
	for i, n := range names {
		task, err := json.Marshal(w.Tasks[n])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = append(doc, fmt.Sprintf("%q:", n)...)
		doc = append(doc, task...)
	}
	return append(doc, "}}"...)
}

// wideFanout is a root and n-1 leaves reading its output, wide enough
// for the front half's parallel passes.
func wideFanout(t testing.TB, n int) *Workflow {
	t.Helper()
	w := New("wide")
	if err := w.AddTask(buildTask("root", "root", []string{"in"}, map[string]int64{"out_root": 7})); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		leaf := fmt.Sprintf("leaf_%06d", i)
		if err := w.AddTask(buildTask(leaf, "leaf", []string{"out_root"}, map[string]int64{"out_" + leaf: int64(i)})); err != nil {
			t.Fatal(err)
		}
		if err := w.Link("root", leaf); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestTaskOrderDoesNotMatter: a document that lists its tasks in reverse
// name order parses on the fast path, records that order, and compiles
// to the IDs, CSR, staging manifest, task fingerprints and workflow
// fingerprint of the sorted document.
func TestTaskOrderDoesNotMatter(t *testing.T) {
	ext := func(name string, size int64) uint64 { return uint64(len(name))<<32 | uint64(size) }
	for _, w := range []*Workflow{miniBlast(t), randomFanout(rand.New(rand.NewSource(3))), wideFanout(t, 20_000)} {
		doc, err := w.MarshalCompact()
		if err != nil {
			t.Fatal(err)
		}
		sorted, ok := fastParse(doc)
		if !ok {
			t.Fatalf("%s: the fast path refused the sorted document", w.Name)
		}
		reversed, ok := fastParse(reversedDocument(t, w))
		if !ok {
			t.Fatalf("%s: the fast path refused the reversed document", w.Name)
		}
		if len(reversed.order) != w.Len() || !slices.IsSortedFunc(reversed.order, func(a, b string) int { return strings.Compare(b, a) }) {
			t.Fatalf("%s: the reversed document recorded order %.5q", w.Name, reversed.order)
		}
		sc, st, sext, err := sorted.ValidateCompile()
		if err != nil {
			t.Fatal(err)
		}
		rc, rt, rext, err := reversed.ValidateCompile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc, rc) || !reflect.DeepEqual(st, rt) || !slices.Equal(sext, rext) {
			t.Fatalf("%s: the reversed document validates to another graph, task slice or manifest", w.Name)
		}
		if !slices.Equal(TaskFingerprints(sc, st, ext), TaskFingerprints(rc, rt, ext)) {
			t.Fatalf("%s: task fingerprints differ", w.Name)
		}
		if Fingerprint(sorted) != Fingerprint(reversed) || Fingerprint(reversed) != Fingerprint(w) {
			t.Fatalf("%s: workflow fingerprints differ", w.Name)
		}
		cc, ct, err := reversed.Compile()
		if err != nil || !reflect.DeepEqual(cc, sc) || !reflect.DeepEqual(ct, st) {
			t.Fatalf("%s: Compile of the reversed document differs (%v)", w.Name, err)
		}
	}
}

// TestTaskNamesAnyHistory: whatever happened to a workflow — AddTask,
// direct writes, deletes and replacements in Tasks, a null task, a map
// literal, a parse on either path, a clone — TaskNames is the sorted key
// set, and ValidateCompile reports the problems, in the order, it
// reports for a literal of the same map, which has no recorded order.
func TestTaskNamesAnyHistory(t *testing.T) {
	reference := func(w *Workflow) []string {
		var names []string
		for n := range w.Tasks {
			names = append(names, n)
		}
		slices.Sort(names)
		return names
	}
	for seed := range int64(300) {
		r := rand.New(rand.NewSource(seed))
		pick := func() string { return fmt.Sprintf("t%02d", r.Intn(12)) }
		task := func(name string) *Task {
			task := buildTask(name, "x", []string{"f" + pick()}, map[string]int64{"f" + name: 1})
			for range r.Intn(3) {
				task.Parents = append(task.Parents, pick())
				task.Children = append(task.Children, pick())
			}
			return task
		}
		w := New("history")
		var ops []string
		for range 30 {
			name := pick()
			switch op := r.Intn(10); op {
			case 0, 1, 2:
				w.AddTask(task(name)) // a duplicate is refused, and not recorded
			case 3:
				w.Tasks[name] = task(name)
			case 4:
				w.Tasks[name] = task(pick()) // keyed under another name
			case 5:
				delete(w.Tasks, name)
			case 6:
				w.Tasks[name] = nil
			case 7:
				w = &Workflow{Name: w.Name, Tasks: maps.Clone(w.Tasks)}
			case 8, 9:
				doc, err := w.MarshalCompact()
				if err != nil {
					t.Fatal(err)
				}
				if op == 9 { // an escape sends Parse to encoding/json
					doc = append([]byte(`{"description":"\u0078",`), doc[1:]...)
					if _, ok := fastParse(doc); ok {
						t.Fatal("the fast path took an escaped string")
					}
				}
				if w, err = Parse(doc); err != nil {
					t.Fatal(err)
				}
			}
			ops = append(ops, fmt.Sprint(len(ops), ":", name))
			want := reference(w)
			if !slices.ContainsFunc(want, func(n string) bool { return w.Tasks[n] == nil }) && r.Intn(4) == 0 {
				w = w.Clone() // Clone dereferences every task
			}
			if got := w.TaskNames(); !slices.Equal(got, want) {
				t.Fatalf("seed %d after %v: TaskNames %q, want %q", seed, ops, got, want)
			}
			lit := &Workflow{Name: w.Name, Tasks: maps.Clone(w.Tasks)}
			gc, gt, gext, gerr := w.ValidateCompile()
			wc, wt, wext, werr := lit.ValidateCompile()
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(gt, wt) || !slices.Equal(gext, wext) {
				t.Fatalf("seed %d after %v: ValidateCompile\n got %v\nwant %v", seed, ops, gerr, werr)
			}
		}
	}
}
