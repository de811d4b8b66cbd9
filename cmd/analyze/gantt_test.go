package main

import (
	"strings"
	"testing"

	"wfserverless/internal/wfm"
)

func sampleTrace() *wfm.Trace {
	return &wfm.Trace{
		Workflow: "Blast-mini",
		Makespan: 5.5,
		WallMS:   110,
		Events: []wfm.TraceEvent{
			{Name: "split", Category: "split_fasta", Phase: 1, StartMS: 0, EndMS: 30},
			{Name: "blast_1", Category: "blastall", Phase: 2, StartMS: 35, EndMS: 80},
			{Name: "blast_2", Category: "blastall", Phase: 2, StartMS: 35, EndMS: 90},
			{Name: "blast_3", Category: "blastall", Phase: 2, StartMS: 36, EndMS: 85},
			{Name: "cat", Category: "cat", Phase: 3, StartMS: 95, EndMS: 110, Error: "boom"},
		},
	}
}

func TestRenderGantt(t *testing.T) {
	var b strings.Builder
	if err := RenderGantt(&b, sampleTrace(), 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Blast-mini", "split (1)", "blast_1 (2)", "cat (3)", "!ERR", "="} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
	// bars are ordered in time: split's bar starts at column 0
	lines := strings.Split(out, "\n")
	for _, ln := range lines {
		if strings.HasPrefix(ln, "split (1)") && !strings.Contains(ln, "|=") {
			t.Fatalf("split bar not at t=0: %q", ln)
		}
	}
}

func TestRenderGanttCapsRows(t *testing.T) {
	tr := sampleTrace()
	// inflate phase 2 to force truncation
	for i := 0; i < 50; i++ {
		tr.Events = append(tr.Events, wfm.TraceEvent{
			Name: "extra", Phase: 2, StartMS: 40, EndMS: 60,
		})
	}
	var b strings.Builder
	if err := RenderGantt(&b, tr, 9); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "more function(s) not shown") {
		t.Fatal("row cap not applied")
	}
}

func TestRenderGanttEmpty(t *testing.T) {
	var b strings.Builder
	if err := RenderGantt(&b, &wfm.Trace{}, 10); err == nil {
		t.Fatal("empty trace accepted")
	}
}
