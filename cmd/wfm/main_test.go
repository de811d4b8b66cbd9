package main

import (
	"context"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"wfserverless/internal/experiments"
	"wfserverless/internal/wfgen"
)

// TestFlagsGolden pins the command line: the flag listing `wfm -h`
// prints must equal testdata/flags.golden byte for byte, which was
// recorded from `wfm -h` of the release before the flags were bound
// straight into the structs they configure.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("wfm", flag.ContinueOnError)
	newFlags(fs)
	var got strings.Builder
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("-h changed:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// simulated parses args as wfm would and returns the tunables simulated
// mode runs on.
func simulated(t *testing.T, args ...string) experiments.Tunables {
	t.Helper()
	fs := flag.NewFlagSet("wfm", flag.ContinueOnError)
	c := newFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := c.resolveMgr(); err != nil {
		t.Fatal(err)
	}
	tn, err := c.tunables(fs)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// TestParadigmHonoursManagerFlags: under -paradigm a manager flag set on
// the command line reaches the manager, and one left unset keeps the
// experiments' template value rather than wfm's direct-mode default.
func TestParadigmHonoursManagerFlags(t *testing.T) {
	want := experiments.DefaultTunables().Manager
	if got := simulated(t, "-paradigm", "Kn10wNoPM").Manager; !reflect.DeepEqual(got, want) {
		t.Errorf("no manager flag set: manager options = %+v, want the template %+v", got, want)
	}
	want.Batching.Enabled, want.Retries = true, 7
	if got := simulated(t, "-paradigm", "Kn10wNoPM", "-batch", "-retries", "7").Manager; !reflect.DeepEqual(got, want) {
		t.Errorf("-batch -retries 7: manager options = %+v, want %+v", got, want)
	}

	// The baseline speaks /invoke-batch too: a batched run completes.
	tn := simulated(t, "-paradigm", "LC10wNoPM", "-batch", "-time-scale", "0.002")
	w, err := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := experiments.ByID("LC10wNoPM")
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiments.RunWorkflow(context.Background(), spec, w, tn)
	if err != nil || m.Failures != 0 || m.Requests != int64(w.Len()) {
		t.Fatalf("LC10wNoPM -batch: %v, %+v", err, m)
	}
}

// TestParadigmRejectsDirectFlags: simulated mode reads none of the
// direct-mode flags, so setting one is an error that names it, the
// first in flag order when several are set.
func TestParadigmRejectsDirectFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "t.json"}, {"-v"}, {"-workdir", "d"}, {"-journal", "j"},
		{"-journal-sync", "always"}, {"-journal-group-ms", "5"}, {"-resume"},
		{"-crash-after-tasks", "3"}, {"-memoize", "m.cache"}, {"-health"},
		{"-speculate"}, {"-straggler-factor", "2"}, {"-flight-recorder", "f.jsonl"},
		{"-trace", "t.json", "-v", "-journal", "j", "-resume", "-memoize", "m.cache"},
	} {
		fs := flag.NewFlagSet("wfm", flag.ContinueOnError)
		c := newFlags(fs)
		if err := fs.Parse(append([]string{"-paradigm", "Kn10wNoPM"}, args...)); err != nil {
			t.Fatal(err)
		}
		want := args[0]
		if len(args) > 2 {
			want = "-journal"
		}
		if _, err := c.tunables(fs); err == nil || !strings.HasPrefix(err.Error(), want+" ") {
			t.Errorf("%v: err = %v, want one naming %s", args, err, want)
		}
	}
}
