// Command analyze renders campaign CSVs (from cmd/experiments -csv) as
// the grouped-bar views behind the paper's Figures 4-7 — the equivalent
// of running the artifact's Jupyter notebooks.
//
// Examples:
//
//	analyze -csv results/campaign.csv
//	analyze -csv results/campaign.csv -figure Figure7 -metric mean_cpu_cores
//	analyze -trace results/run.trace.json
//	analyze -journal ./run-journal
//	analyze -journal /var/lib/wfmd        (wfmd data dir: one table of all runs)
//	analyze -diff baseline.spans.jsonl current.spans.jsonl
//	analyze -diff -json old.spans.jsonl.gz new.spans.jsonl.gz
package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"wfserverless/internal/experiments"
	"wfserverless/internal/health"
	"wfserverless/internal/metrics"
	"wfserverless/internal/obs"
	"wfserverless/internal/wfm"
	"wfserverless/internal/wfmd"
)

func main() {
	var (
		csvPath   = flag.String("csv", "results/campaign.csv", "campaign CSV from cmd/experiments")
		figure    = flag.String("figure", "", "figure to render (default: all present)")
		metric    = flag.String("metric", "", "metric to render (default: all of "+fmt.Sprint(Metrics)+")")
		ganttPath = flag.String("gantt", "", "render an execution trace (from wfm -trace) as a Gantt chart instead")
		spanPath  = flag.String("trace", "", "summarize a span trace (Chrome trace JSON, span JSONL, or wfm trace JSON) instead")
		jrnlPath  = flag.String("journal", "", "summarize a durable run journal (from wfm -journal), or a wfmd data dir as one all-runs table, instead")
		diffMode  = flag.Bool("diff", false, "compare two span logs: analyze -diff OLD NEW reports per-endpoint latency shifts and critical-path change")
		jsonOut   = flag.Bool("json", false, "with -diff: emit one machine-readable JSON document instead of text")
	)
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff needs exactly two span logs: analyze -diff OLD NEW"))
		}
		if err := runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	if *jrnlPath != "" {
		runJournalSummary(*jrnlPath)
		return
	}

	if *spanPath != "" {
		runTraceSummary(*spanPath)
		return
	}

	if *ganttPath != "" {
		f, err := os.Open(*ganttPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := wfm.ParseTrace(f)
		if err != nil {
			fatal(err)
		}
		if err := RenderGantt(os.Stdout, tr, 60); err != nil {
			fatal(err)
		}
		return
	}

	f, err := os.Open(*csvPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	suites, err := experiments.ReadCSV(f)
	if err != nil {
		fatal(err)
	}
	recs, figures := byFigure(suites)
	if len(figures) == 0 {
		fatal(fmt.Errorf("no records in %s", *csvPath))
	}

	if *figure != "" {
		figures = []string{*figure}
	}
	metrics := Metrics
	if *metric != "" {
		metrics = []string{*metric}
	}

	for _, fig := range figures {
		for _, m := range metrics {
			if err := RenderFigure(os.Stdout, recs[fig], fig, m); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		agg, err := Aggregate(recs[fig], "mean_cpu_cores")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s per-paradigm mean CPU cores:\n", fig)
		names := make([]string, 0, len(agg))
		for p := range agg {
			names = append(names, p)
		}
		sort.Strings(names)
		for _, p := range names {
			fmt.Printf("  %-14s %8.2f\n", p, agg[p])
		}
		fmt.Println()
	}
}

// runDiff compares two recorded runs (pillar of the run-health plane):
// it profiles each span log, then reports per-endpoint p50/p95/p99
// shifts worst-first, retry/cold-start deltas, and how the critical
// path's composition moved between the runs.
func runDiff(w io.Writer, oldPath, newPath string, jsonMode bool) error {
	oldRecs, _, err := readSpanRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, _, err := readSpanRecords(newPath)
	if err != nil {
		return err
	}
	d := health.DiffProfiles(health.ProfileRecords(oldRecs), health.ProfileRecords(newRecs))
	if jsonMode {
		return d.WriteJSON(w)
	}
	return d.WriteText(w)
}

// loadSpanRecords reads a span file in any of the three formats the
// tooling writes, sniffing by structure: Chrome trace-event JSON (the
// object form with a traceEvents array), wfm trace JSON (cmd/wfm
// -trace, which embeds spans when tracing was on), or flat span JSONL.
// Gzip-compressed inputs (sniffed by magic bytes, as produced by
// `gzip run.spans.jsonl` on a long campaign's logs) are decompressed
// transparently. The returned *wfm.Trace is non-nil only for the wfm
// format.
func loadSpanRecords(path string) ([]obs.Record, string, *wfm.Trace) {
	recs, kind, tr, err := readSpanRecordsKind(path)
	if err != nil {
		fatal(err)
	}
	return recs, kind, tr
}

func readSpanRecords(path string) ([]obs.Record, string, error) {
	recs, kind, _, err := readSpanRecordsKind(path)
	return recs, kind, err
}

func readSpanRecordsKind(path string) ([]obs.Record, string, *wfm.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", nil, err
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, "", nil, fmt.Errorf("%s: gzip: %w", path, err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, "", nil, fmt.Errorf("%s: gzip: %w", path, err)
		}
		if err := zr.Close(); err != nil {
			return nil, "", nil, fmt.Errorf("%s: gzip: %w", path, err)
		}
	}
	var probe map[string]json.RawMessage
	if json.Unmarshal(data, &probe) == nil {
		if _, ok := probe["traceEvents"]; ok {
			recs, err := obs.ParseChromeTrace(bytes.NewReader(data))
			if err != nil {
				return nil, "", nil, err
			}
			return recs, "chrome trace", nil, nil
		}
		if _, ok := probe["workflow"]; ok {
			tr, err := wfm.ParseTrace(bytes.NewReader(data))
			if err != nil {
				return nil, "", nil, err
			}
			return tr.Spans, "wfm trace", tr, nil
		}
	}
	recs, err := obs.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		return nil, "", nil, fmt.Errorf("%s: not chrome trace JSON, wfm trace JSON, or span JSONL: %w", path, err)
	}
	return recs, "span log", nil, nil
}

// runTraceSummary prints what a collected trace says about a run: span
// volume per layer, latency percentiles per span name, and the critical
// path that explains the makespan.
// runJournalSummary decodes a durable run journal and prints the
// post-mortem view: what ran, what completed, how many attempts each
// task took, and what every crash/resume cycle recovered. Pointed at a
// wfmd data dir instead, it prints one table covering every run the
// service has logged.
func runJournalSummary(path string) {
	if root := wfmd.RunsRoot(path); root != "" {
		runServiceSummary(root)
		return
	}
	s, err := wfm.ReadRunJournal(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("== Run journal: %s ==\n", path)
	if h := s.Header; h != nil {
		fmt.Printf("workflow:     %s (%d tasks, %s scheduling)\n", h.Workflow, h.TaskCount, h.Scheduling)
		fmt.Printf("fingerprint:  %s\n", h.Fingerprint)
		fmt.Printf("options hash: %016x\n", h.OptionsHash)
	} else {
		fmt.Println("workflow:     (no run header — empty or foreign journal)")
	}
	fmt.Printf("segments:     %d", s.Segments)
	if s.Torn {
		fmt.Printf("  (torn tail: writer died mid-append)")
	}
	fmt.Println()

	fmt.Println("\nevents:")
	kinds := make([]string, 0, len(s.EventCounts))
	for k := range s.EventCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-16s %d\n", k, s.EventCounts[k])
	}

	attempts := 0
	retried := 0
	for _, n := range s.Attempts {
		attempts += n
		if n > 1 {
			retried++
		}
	}
	fmt.Printf("\ntasks:        %d started, %d completed, %d failed (%d skipped)\n",
		len(s.Attempts), s.CompletedTasks, s.FailedTasks, s.SkippedTasks)
	fmt.Printf("attempts:     %d total, %d task(s) ran more than once\n", attempts, retried)
	if s.MemoizedTasks > 0 {
		executed := s.CompletedTasks - s.MemoizedTasks
		fmt.Printf("memoized:     %d task(s) served from the memo cache, %d executed, %d re-executed after a hit\n",
			s.MemoizedTasks, executed, s.MemoReexecuted)
		fmt.Printf("              %d output byte(s) skipped (never re-produced)\n", s.MemoSkippedBytes)
	}
	if ids, n := s.MaxAttemptTasks(); n > 1 {
		show := ids
		if len(show) > 8 {
			show = show[:8]
		}
		fmt.Printf("max attempts: %d by task id(s) %v\n", n, show)
	}
	for i, r := range s.Resumes {
		fmt.Printf("resume %d:     %d recorded, %d invocations skipped, %d re-executed\n",
			i+1, r.Recorded, r.Verified, r.Reexecuted)
	}
	for i, e := range s.Ends {
		fmt.Printf("run end %d:    %s (%d failed)\n", i+1, e.Status, e.Failed)
	}
	if len(s.Ends) == 0 {
		fmt.Println("run end:      none recorded — the run is in flight or was killed")
	}
}

// runServiceSummary renders a wfmd data dir's service log as one table
// of all runs: terminal runs from their result, in-flight or
// interrupted runs from whatever their journal records say so far.
func runServiceSummary(root string) {
	runs, err := wfmd.ReadDataDir(root)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("== Service runs: %s ==\n", root)
	fmt.Printf("%-10s %-12s %-8s %-20s %-11s %7s %9s %6s %8s %10s\n",
		"run", "tenant", "priority", "workflow", "state", "tasks", "completed", "memo", "retries", "duration_s")
	for _, r := range runs {
		meta, result := r.Meta, r.Result
		if result != nil {
			fmt.Printf("%-10s %-12s %-8s %-20s %-11s %7d %9d %6d %8d %10.2f\n",
				meta.ID, meta.Tenant, meta.Priority, meta.Workflow, result.State,
				result.Tasks, result.Completed, result.Memoized, result.Retries, result.WallS)
			continue
		}
		// No terminal marker: the run is in flight, queued, or was cut
		// down by a daemon crash — report the journal records' view.
		state := "incomplete"
		if len(r.Records) == 0 {
			state = "queued"
		}
		s := wfm.SummarizeJournal(r.Records, r.Torn)
		fmt.Printf("%-10s %-12s %-8s %-20s %-11s %7d %9d %6d %8s %10s\n",
			meta.ID, meta.Tenant, meta.Priority, meta.Workflow, state,
			meta.Tasks, s.CompletedTasks, s.MemoizedTasks, "-", "-")
	}
	if len(runs) == 0 {
		fmt.Println("(no runs recorded)")
	}
}

func runTraceSummary(path string) {
	recs, kind, tr := loadSpanRecords(path)
	fmt.Printf("trace:      %s (%s, %d spans)\n", path, kind, len(recs))
	if tr != nil {
		fmt.Printf("workflow:   %s (%s schedule, makespan %.2f s)\n", tr.Workflow, tr.Scheduling, tr.Makespan)
		if tr.TraceID != "" {
			fmt.Printf("trace id:   %s\n", tr.TraceID)
		}
	}
	if len(recs) == 0 {
		if tr != nil {
			fmt.Println("no spans embedded; rerun cmd/wfm with -sample or a trace output flag")
		}
		return
	}

	layers := map[string]int{}
	byName := map[string]*metrics.Series{}
	for _, r := range recs {
		layers[r.Layer]++
		// WFM task spans carry the task's own name; bucket them so a
		// 100k-task trace still summarizes to a handful of rows.
		key := r.Name
		if r.Layer == obs.LayerWFM {
			switch {
			case strings.HasPrefix(r.Name, "workflow:"):
				key = "workflow"
			case r.Name != "invoke" && r.Name != "warm":
				key = "task"
			}
		}
		s := byName[key]
		if s == nil {
			s = &metrics.Series{}
			byName[key] = s
		}
		s.Values = append(s.Values, r.DurMS)
	}
	fmt.Printf("layers:    ")
	for _, layer := range []string{obs.LayerWFM, obs.LayerPlatform, obs.LayerWfbench} {
		if n := layers[layer]; n > 0 {
			fmt.Printf(" %s=%d", layer, n)
			delete(layers, layer)
		}
	}
	for layer, n := range layers {
		fmt.Printf(" %s=%d", layer, n)
	}
	fmt.Println()

	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n%-24s %7s %10s %10s %10s %10s\n", "span", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms")
	for _, n := range names {
		s := byName[n]
		fmt.Printf("%-24s %7d %10.3f %10.3f %10.3f %10.3f\n",
			n, s.Len(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Percentile(99))
	}

	fmt.Println("\ncritical path (latest-ending root to leaf):")
	for _, r := range obs.CriticalPath(recs) {
		fmt.Printf("  %-10s %-24s %10.3f ms at %.3f ms\n", r.Layer, r.Name, r.DurMS, r.StartMS)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(1)
}
