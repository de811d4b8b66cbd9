// Command experiments runs the paper's evaluation campaigns and prints
// the rows behind Tables I-II and Figures 3-7, optionally writing CSVs —
// the equivalent of run_all_wfbench.sh + the analysis notebooks.
//
// Examples:
//
//	experiments -suite all
//	experiments -suite fig7 -small 50 -large 250 -time-scale 0.01 -csv fig7.csv
//	experiments -suite design
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wfserverless/internal/experiments"
	"wfserverless/internal/recipes"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

// cli holds every flag's value; the manager flags -time-scale and
// -batch* are bound straight into tn.
type cli struct {
	suite, schedule, csvPath, scaleShape, traceDir      string
	cpuProfile, memProfile                              string
	small, large, huge, healthTasks                     int
	recoveryTasks, recoveryTrials, memoTasks, memoEdits int
	serviceRuns, serviceTasks, serviceSlots             int
	scaleTasks, scaleWidth, scaleParallel               int
	seed, faultSeed                                     int64
	faultError, faultReject, faultLatMS                 float64
	healthDelayMS, traceSample                          float64
	memoize                                             bool

	tn experiments.Tunables
}

// newFlags registers the campaign flags on fs.
func newFlags(fs *flag.FlagSet) *cli {
	c := &cli{tn: experiments.DefaultTunables()}
	fs.StringVar(&c.suite, "suite", "all", "design | table2 | fig3 | fig4 | fig5 | fig6 | fig7 | concurrent | resilience | health | scale | recovery | memo | service | all")
	fs.IntVar(&c.small, "small", 30, "small workflow size")
	fs.IntVar(&c.large, "large", 120, "large workflow size")
	fs.IntVar(&c.huge, "huge", 300, "huge workflow size (coarse-grained)")
	fs.Int64Var(&c.seed, "seed", 1, "generation seed")
	fs.Float64Var(&c.tn.TimeScale, "time-scale", c.tn.TimeScale, "nominal-to-wall compression")
	fs.StringVar(&c.schedule, "schedule", "phases", "workflow-manager scheduling: phases (paper) or dependency (event-driven)")
	fs.StringVar(&c.csvPath, "csv", "", "also append suite CSVs to this file")

	// Batched invocation for the suites that exercise the manager's
	// transport (resilience, recovery, scale).
	fs.BoolVar(&c.tn.Manager.Batching.Enabled, "batch", false, "run through the batched invocation pipeline")
	fs.IntVar(&c.tn.Manager.Batching.MaxTasks, "batch-tasks", 0, "max sub-tasks per batch (0: 64)")
	fs.IntVar(&c.tn.Manager.Batching.MaxBytes, "batch-bytes", 0, "max summed payload bytes per batch (0: 1 MiB)")
	fs.Float64Var(&c.tn.Manager.Batching.Linger, "batch-linger", 0, "batch linger window, nominal seconds (0: 0.005)")

	// Fault profile for -suite resilience.
	fs.Float64Var(&c.faultError, "fault-error-rate", 0.3, "resilience suite: probability of an injected 500")
	fs.Float64Var(&c.faultReject, "fault-reject-rate", 0.05, "resilience suite: probability of an injected 429")
	fs.Float64Var(&c.faultLatMS, "fault-latency-ms", 10, "resilience suite: injected latency spike, wall ms")
	fs.Int64Var(&c.faultSeed, "fault-seed", 13, "resilience suite: fault sequence seed")

	// Shape of -suite health.
	fs.IntVar(&c.healthTasks, "health-tasks", 24, "health suite: workflow size for the straggler campaign")
	fs.Float64Var(&c.healthDelayMS, "health-delay-ms", 1000, "health suite: injected straggler delay, wall ms")

	// Shape of -suite recovery.
	fs.IntVar(&c.recoveryTasks, "recovery-tasks", 400, "recovery suite: synthetic workflow size per trial")
	fs.IntVar(&c.recoveryTrials, "recovery-trials", 3, "recovery suite: randomized crash points per {scheduling} x {faults} cell")

	// Shape of -suite memo, plus the -memoize toggle for the
	// recovery and resilience suites.
	fs.IntVar(&c.memoTasks, "memo-tasks", 100_000, "memo suite: synthetic workflow size")
	fs.IntVar(&c.memoEdits, "memo-edits", 8, "memo suite: tasks perturbed in the k-edit variant")
	fs.BoolVar(&c.memoize, "memoize", false, "run the recovery and resilience suites with the content-addressed memo cache enabled")

	// Shape of -suite service.
	fs.IntVar(&c.serviceRuns, "service-runs", 6, "service suite: runs per tenant in the fairness phase")
	fs.IntVar(&c.serviceTasks, "service-tasks", 64, "service suite: tasks per synthetic workflow")
	fs.IntVar(&c.serviceSlots, "service-slots", 4, "service suite: global in-flight task budget")

	// Shape of -suite scale.
	fs.IntVar(&c.scaleTasks, "scale-tasks", 100_000, "scale suite: synthetic workflow size")
	fs.StringVar(&c.scaleShape, "scale-shape", "random", "scale suite: random | chain | fanout")
	fs.IntVar(&c.scaleWidth, "scale-width", 64, "scale suite: tasks per layer for the random shape")
	fs.IntVar(&c.scaleParallel, "scale-parallel", 256, "scale suite: max simultaneous invocations")

	// Tracing of the resilience and scale suites.
	fs.Float64Var(&c.traceSample, "trace", 0, "span sampling ratio for the resilience and scale suites (0 disables, 1 records every run)")
	fs.StringVar(&c.traceDir, "trace-dir", "results", "directory receiving per-run trace files (Chrome trace JSON + span JSONL)")

	// Profiling of whatever suite runs.
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	return c
}

func main() {
	c := newFlags(flag.CommandLine)
	flag.Parse()

	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	tn := c.tn
	var err error
	if tn.Manager.Scheduling, err = wfm.ParseScheduling(c.schedule); err != nil {
		fatal(err)
	}
	sz := experiments.Sizes{Small: c.small, Large: c.large, Huge: c.huge}
	ctx := context.Background()

	var csv *os.File
	if c.csvPath != "" {
		f, err := os.Create(c.csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		csv = f
	}

	runSuite := func(name string, f func(context.Context, experiments.Sizes, int64, experiments.Tunables) (*experiments.Suite, error)) {
		s, err := f(ctx, sz, c.seed, tn)
		if err != nil {
			fatal(err)
		}
		if err := experiments.WriteTable(os.Stdout, s); err != nil {
			fatal(err)
		}
		if csv != nil {
			if err := experiments.WriteCSV(csv, s); err != nil {
				fatal(err)
			}
		}
		if name == "fig7" {
			reds := experiments.Reductions(s)
			fmt.Println("\nServerless vs local containers (Kn10wNoPM vs LC10wNoPM):")
			fmt.Printf("%-12s %6s %6s %10s %10s %8s %8s\n",
				"workflow", "tasks", "group", "time_ratio", "pwr_ratio", "cpu_red%", "mem_red%")
			for _, r := range reds {
				fmt.Printf("%-12s %6d %6d %10.2f %10.2f %8.2f %8.2f\n",
					r.Recipe, r.Size, r.Group, r.TimeRatio, r.PowerRatio, r.CPUPct, r.MemPct)
			}
			cpu, mem := experiments.MaxReductions(reds)
			fmt.Printf("\nHeadline: serverless reduces CPU usage by up to %.2f%% and memory usage by up to %.2f%%\n", cpu, mem)
			fmt.Println("(paper: 78.11% and 73.92%)")
		}
		fmt.Println()
	}

	switch c.suite {
	case "concurrent":
		runConcurrent(ctx, sz, c.seed, tn)
	case "design":
		printDesign()
	case "table2":
		printTable2()
	case "fig3":
		printFig3(c.large, c.seed)
	case "fig4":
		runSuite("fig4", experiments.Figure4)
	case "fig5":
		runSuite("fig5", experiments.Figure5)
	case "fig6":
		runSuite("fig6", experiments.Figure6)
	case "fig7":
		runSuite("fig7", experiments.Figure7)
	case "all":
		printDesign()
		printTable2()
		printFig3(c.large, c.seed)
		runSuite("fig4", experiments.Figure4)
		runSuite("fig5", experiments.Figure5)
		runSuite("fig6", experiments.Figure6)
		runSuite("fig7", experiments.Figure7)
	default:
		if !experiments.IsCampaign(c.suite) {
			fatal(fmt.Errorf("unknown suite %q", c.suite))
		}
		runCampaign(ctx, c, tn)
	}
}

// runCampaign runs one acceptance campaign (recovery, memo, resilience,
// health, service or scale) on the flags that shape it, prints its
// table and gates, writes any traces, and exits non-zero if a gate
// failed.
func runCampaign(ctx context.Context, c *cli, tn experiments.Tunables) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	cfg := experiments.Config{Seed: c.seed}
	switch c.suite {
	case "recovery":
		// A cell runs three full workflows: keep the campaign snappy.
		cfg.Tasks, cfg.Trials, cfg.TimeScale = c.recoveryTasks, c.recoveryTrials, tn.TimeScale/10
		cfg.Batching, cfg.Memoize = tn.Manager.Batching, c.memoize
	case "memo":
		// A mode runs four variants and their references.
		cfg.Tasks, cfg.Edits, cfg.TimeScale = c.memoTasks, c.memoEdits, tn.TimeScale/10
		cfg.Batching = tn.Manager.Batching
	case "resilience":
		cfg.Tasks, cfg.TimeScale, cfg.Batching = c.small, tn.TimeScale, tn.Manager.Batching
		cfg.Memoize, cfg.TraceSample = c.memoize, c.traceSample
		cfg.Faults = wfbench.FaultProfile{
			ErrorRate:     c.faultError,
			RejectRate:    c.faultReject,
			RetryAfter:    0.25 * tn.TimeScale,
			LatencyRate:   0.2,
			Latency:       ms(c.faultLatMS),
			LatencyJitter: ms(c.faultLatMS),
			Seed:          c.faultSeed,
		}
	case "health":
		cfg.Tasks, cfg.Latency = c.healthTasks, ms(c.healthDelayMS)
	case "service":
		cfg.Runs, cfg.Tasks, cfg.Slots = c.serviceRuns, c.serviceTasks, c.serviceSlots
	case "scale":
		cfg.Tasks, cfg.Shape, cfg.Width, cfg.Parallel = c.scaleTasks, c.scaleShape, c.scaleWidth, c.scaleParallel
		cfg.Scheduling, cfg.Batching, cfg.TraceSample = tn.Manager.Scheduling, tn.Manager.Batching, c.traceSample
	}
	rows, failed, err := experiments.RunCampaign(ctx, os.Stdout, c.suite, cfg)
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		writeTrace(c.traceDir, fmt.Sprintf("%s_%s_%d_%s", c.suite, r.Recipe, r.Tasks, r.Mode), r.Trace)
	}
	if len(failed) > 0 {
		fatal(fmt.Errorf("%d gate failure(s):\n  %s", len(failed), strings.Join(failed, "\n  ")))
	}
	fmt.Println()
}

// writeTrace exports one run's spans under the trace directory as both
// Perfetto-loadable Chrome trace JSON and a flat span log. A nil or
// empty trace (tracing off, or the run lost the sampling draw) writes
// nothing.
func writeTrace(dir, name string, tr *wfm.Trace) {
	if tr == nil || len(tr.Spans) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	chromePath := filepath.Join(dir, name+".trace.json")
	f, err := os.Create(chromePath)
	if err != nil {
		fatal(err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		fatal(err)
	}
	f.Close()
	spanPath := filepath.Join(dir, name+".spans.jsonl")
	f, err = os.Create(spanPath)
	if err != nil {
		fatal(err)
	}
	if err := tr.WriteSpanLog(f); err != nil {
		f.Close()
		fatal(err)
	}
	f.Close()
	fmt.Printf("traces: %s %s (%d spans)\n", chromePath, spanPath, len(tr.Spans))
}

// runConcurrent contrasts serverless vs local containers when several
// workflows are submitted at once (Section VII).
func runConcurrent(ctx context.Context, sz experiments.Sizes, seed int64, tn experiments.Tunables) {
	var wfs []*wfformat.Workflow
	for _, recipe := range []string{"blast", "seismology", "srasearch"} {
		w, err := wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: sz.Small, Seed: seed})
		if err != nil {
			fatal(err)
		}
		wfs = append(wfs, w)
	}
	fmt.Println("== Concurrent workflows (3 group-1 workflows submitted at once) ==")
	fmt.Printf("%-12s %10s %12s %11s %9s %9s\n",
		"paradigm", "makespan_s", "sum_solo_s", "interleave", "cpu_cores", "mem_GB")
	for _, id := range []experiments.Paradigm{experiments.Kn10wNoPM, experiments.LC10wNoPM} {
		spec, err := experiments.ByID(id)
		if err != nil {
			fatal(err)
		}
		m, err := experiments.RunConcurrent(ctx, spec, wfs, tn)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-12s %10.1f %12.1f %11.2f %9.1f %9.2f\n",
			m.Paradigm, m.MakespanS, m.SumSoloS, m.Interleave, m.MeanCPUCores, m.MeanMemGB)
	}
	fmt.Println()
}

func printDesign() {
	d := experiments.Design(recipes.Names())
	fine, coarse := 0, 0
	for _, e := range d {
		if e.Granularity == "fine" {
			fine++
		} else {
			coarse++
		}
	}
	fmt.Println("== Table I: experiment design ==")
	fmt.Printf("fine-grained:   %d experiments (7 paradigms x 7 workflows x 2 sizes)\n", fine)
	fmt.Printf("coarse-grained: %d experiments (2 paradigms x 7 workflows x 3 sizes)\n", coarse)
	fmt.Printf("total:          %d experiments\n\n", len(d))
}

func printTable2() {
	fmt.Println("== Table II: computational paradigms ==")
	for _, s := range experiments.All() {
		fmt.Printf("%-14s %s\n", s.ID, s.Description)
	}
	fmt.Println()
}

func printFig3(size int, seed int64) {
	chars, err := experiments.Figure3(size, seed)
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteCharacterization(os.Stdout, chars); err != nil {
		fatal(err)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
