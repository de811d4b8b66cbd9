package wfformat_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wfserverless/internal/translator"
	. "wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
)

// ownDocuments renders what this repository writes and then reads back:
// the seven recipes as generated and as the Knative translator annotates
// them (what bench/ and wfmd's clients submit), a service-shaped and a
// hand-built workflow, each compact and indented.
func ownDocuments(t testing.TB) [][]byte {
	t.Helper()
	wfs := append(sevenRecipes(t, 12), serviceShaped(t, "svc000", 5), MiniBlast(t))
	for _, recipe := range []string{"blast", "bwa", "cycles", "epigenomics", "genomes", "seismology", "srasearch"} {
		w, err := wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: 12, Seed: 2, CPUWork: 1})
		if err != nil {
			t.Fatal(err)
		}
		w, err = translator.Knative(w, translator.KnativeOptions{IngressURL: "http://127.0.0.1:31080"})
		if err != nil {
			t.Fatal(err)
		}
		wfs = append(wfs, w)
	}
	var docs [][]byte
	for _, w := range wfs {
		compact, err := w.MarshalCompact()
		if err != nil {
			t.Fatal(err)
		}
		indented, err := w.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, compact, indented)
	}
	return docs
}

// foreignDocuments are inputs the fast path must hand to encoding/json,
// or decode exactly as it would.
var foreignDocuments = []string{
	`{"tasks":{"a":null}}`,
	`{"name":"dup","tasks":{"a":{"name":"a"},"a":{"name":"b"}}}`,
	`{"name":"dup","tasks":{"a":{"name":"a"}},"tasks":{"b":{"name":"b"}}}`,
	`{"tasks":{"a":{"parents":["x","y"],"parents":["z"]}}}`,
	`{"tasks":{"a":{"files":[{"link":"input","name":"f","sizeInBytes":1}],"files":[{"name":"g"}]}}}`,
	`{"tasks":{"a":{"command":{"program":"p"},"command":{"api_url":"u"}}}}`,
	`{"tasks":{"a":{"command":{"arguments":[{"out":{"f":1}}],"arguments":[{"out":{"g":2}}]}}}}`,
	`{"tasks":{"a":{"command":{"arguments":[{"out":{"f":1},"out":{"g":2}}]}}}}`,
	`{"tasks":{"a":{"command":{"arguments":[{"out":{"f":1,"f":null}}]}}}}`,
	`{"tasks":{"a":{"name":"x","name":null,"cores":2,"cores":3}}}`,
	`{"NAME":"folded","Tasks":{"a":{"Name":"a","CORES":2}}}`,
	`{"tasks":{"a":{"command":{"API_URL":"u","arguments":[{"Percent-CPU":0.5}]},"files":[{"LINK":"input"}]}}}`,
	`{"name":"escape","tasks":{"t\n":{"name":"q\"uote"}}}`,
	`{"name":"café","tasks":{"é":{"category":"naïve"}}}`,
	"{\"name\":\"bad\xffutf8\"}",
	`{"name":"x","extra":{"deep":[1,[2,[3,[4,[5,[6]]]]]]},"tasks":{}}`,
	`{"name":"x","unknown":[true,false,null,1.5e3,"s"],"tasks":{"a":{"unknown":{"k":"v"},"cores":1}}}`,
	`{"tasks":{"a":{"cores":1.5}}}`,
	`{"tasks":{"a":{"cores":"1"}}}`,
	`{"tasks":{"a":{"runtimeInSeconds":01}}}`,
	`{"tasks":{"a":{"runtimeInSeconds":1e999}}}`,
	`{"tasks":{"a":{"files":[{"sizeInBytes":9223372036854775808}]}}}`,
	`{"tasks":{"a":{"parents":null,"children":[],"files":null,"command":null}}}`,
	`{"tasks":{"a":{"parents":[null,"p"],"files":[null,{}],"command":{"arguments":[null]}}}}`,
	`{"tasks":null}`,
	`{"tasks":{}}`,
	`{}`,
	`null`,
	`[]`,
	`{"name":"trailing"} x`,
	`{"name":"trailing",}`,
	`{"name":"unterminated`,
	` { "name" : "spaced" , "tasks" : { "a" : { "cores" : 1 } } } `,
	``,
}

// parseLikeStdlib requires Parse to return what json.Unmarshal decodes,
// or its error.
func parseLikeStdlib(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := Parse(data)
	want := new(Workflow)
	wantErr := json.Unmarshal(data, want)
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != "wfformat: parse: "+wantErr.Error() {
			t.Fatalf("Parse(%q) error = %v, json.Unmarshal = %v", data, gotErr, wantErr)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("Parse(%q) error = %v, json.Unmarshal decodes it", data, gotErr)
	}
	if want.Tasks == nil {
		want.Tasks = map[string]*Task{}
	}
	if !SameWorkflow(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("Parse(%q)\n got %s\nwant %s", data, g, w)
	}
}

// TestParseTakesFastPath: every document this repository writes decodes
// without reflection — asserted, because a fast path that quietly falls
// back costs the scan and then the reflection — and to the same value.
func TestParseTakesFastPath(t *testing.T) {
	for _, doc := range ownDocuments(t) {
		if _, ok := FastParse(doc); !ok {
			t.Fatalf("fast path refused a document of our own: %.200s", doc)
		}
		parseLikeStdlib(t, doc)
	}
}

func TestParseMatchesStdlib(t *testing.T) {
	for _, doc := range foreignDocuments {
		parseLikeStdlib(t, []byte(doc))
	}
}

// TestParseDoesNotAliasInput: wfmd keeps a finished run's workflow name
// and failed task names; a string that pointed into the request body
// would keep the body. Overwriting the body must change nothing parsed.
func TestParseDoesNotAliasInput(t *testing.T) {
	for _, doc := range ownDocuments(t) {
		want, err := Parse(bytes.Clone(doc))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range doc {
			doc[i] = 'X'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workflow %s changed when its document was overwritten", want.Name)
		}
	}
}

// TestParseListsDoNotShareGrowth: lists are cut from shared slabs; a
// caller's append to one must not write into its neighbour.
func TestParseListsDoNotShareGrowth(t *testing.T) {
	doc, err := serviceShaped(t, "svc", 3).MarshalCompact()
	if err != nil {
		t.Fatal(err)
	}
	w, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range w.TaskNames() {
		task := w.Tasks[name]
		_ = append(task.Parents, "scribble")
		_ = append(task.Children, "scribble")
		_ = append(task.Files, File{Name: "scribble"})
		_ = append(task.Command.Arguments, Argument{Name: "scribble"})
		_ = append(task.Command.Arguments[0].Inputs, "scribble")
	}
	if !reflect.DeepEqual(w, want) {
		t.Fatal("an append to one parsed list changed another")
	}
}

// FuzzParseDifferential holds the fast path to encoding/json on any
// input: the same workflow, or the same error.
func FuzzParseDifferential(f *testing.F) {
	for _, doc := range ownDocuments(f) {
		f.Add(doc)
	}
	for _, doc := range foreignDocuments {
		f.Add([]byte(doc))
	}
	f.Add([]byte(strings.Repeat(`{"tasks":`, 3) + `{}` + strings.Repeat(`}`, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		parseLikeStdlib(t, data)
	})
}
