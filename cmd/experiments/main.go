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
	batching := tn.Manager.Batching
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
	case "resilience":
		runResilience(ctx, c.small, c.seed, tn.TimeScale, c.faultError, c.faultReject, c.faultLatMS, c.faultSeed, c.traceSample, c.traceDir, batching, c.memoize)
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
	case "health":
		runHealth(ctx, c.healthTasks, c.seed, time.Duration(c.healthDelayMS*float64(time.Millisecond)))
	case "recovery":
		runRecovery(ctx, c.recoveryTasks, c.recoveryTrials, c.seed, tn.TimeScale, batching, c.memoize)
	case "memo":
		runMemo(ctx, c.memoTasks, c.memoEdits, c.seed, tn.TimeScale, batching)
	case "service":
		runService(ctx, c.serviceRuns, c.serviceTasks, c.serviceSlots)
	case "scale":
		runScale(ctx, experiments.ScaleConfig{
			Tasks:       c.scaleTasks,
			Shape:       c.scaleShape,
			Width:       c.scaleWidth,
			Scheduling:  tn.Manager.Scheduling,
			MaxParallel: c.scaleParallel,
			Seed:        c.seed,
			Batching:    batching,
			TraceSample: c.traceSample,
		}, c.traceDir)
	case "all":
		printDesign()
		printTable2()
		printFig3(c.large, c.seed)
		runSuite("fig4", experiments.Figure4)
		runSuite("fig5", experiments.Figure5)
		runSuite("fig6", experiments.Figure6)
		runSuite("fig7", experiments.Figure7)
	default:
		fatal(fmt.Errorf("unknown suite %q", c.suite))
	}
}

// runScale executes one synthetic large-workflow campaign and prints a
// single result row; pair with -cpuprofile/-memprofile to see where the
// hot path spends its time at 100k tasks.
func runScale(ctx context.Context, cfg experiments.ScaleConfig, traceDir string) {
	fmt.Printf("== Scale: %d-task %s workflow, %s scheduling ==\n",
		cfg.Tasks, shapeName(cfg.Shape), cfg.Scheduling)
	res, err := experiments.Scale(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s %10s %10s %12s %12s %10s %10s\n",
		"shape", "tasks", "edges", "build_ms", "run_ms", "tasks/s", "peak_rss")
	fmt.Printf("%-10s %10d %10d %12.1f %12.1f %10.0f %10s\n",
		shapeName(res.Shape), res.Tasks, res.Edges,
		float64(res.BuildWall.Microseconds())/1e3,
		float64(res.RunWall.Microseconds())/1e3,
		res.TasksPerSec, formatBytes(res.PeakRSSBytes))
	if res.Completed != res.Tasks {
		fatal(fmt.Errorf("only %d of %d tasks completed", res.Completed, res.Tasks))
	}
	writeTrace(traceDir, fmt.Sprintf("scale_%s_%d_%s", shapeName(res.Shape), res.Tasks, res.Scheduling), res.Trace)
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

func shapeName(s string) string {
	if s == "" {
		return "random"
	}
	return s
}

func formatBytes(n int64) string {
	switch {
	case n <= 0:
		return "n/a"
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/float64(1<<30))
	default:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(1<<20))
	}
}

// runRecovery executes the durable-execution campaign: randomized
// kill/resume cycles across both scheduling modes, with and without
// injected faults, asserting the resumed drive state matches an
// uninterrupted reference and no recorded task runs twice.
func runRecovery(ctx context.Context, tasks, trials int, seed int64, timeScale float64, batching wfm.BatchOptions, memoize bool) {
	fmt.Printf("== Recovery: %d-task workflows, %d randomized crash points per cell (memoize=%t) ==\n", tasks, trials, memoize)
	ts, err := experiments.Recovery(ctx, experiments.RecoveryConfig{
		Tasks:     tasks,
		Trials:    trials,
		Seed:      seed,
		TimeScale: timeScale / 10, // recovery cells run 4x2 full workflows; keep the campaign snappy
		Batching:  batching,
		Memoize:   memoize,
	})
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteRecoveryTable(os.Stdout, ts); err != nil {
		fatal(err)
	}
	bad := 0
	for _, t := range ts {
		if !t.DriveMatch || t.DuplicateInvocations != 0 {
			bad++
		}
	}
	if bad > 0 {
		fatal(fmt.Errorf("%d of %d recovery trials violated durable-execution invariants", bad, len(ts)))
	}
	fmt.Printf("\nAll %d trials converged to the reference drive state with zero duplicate invocations.\n\n", len(ts))
}

// runService executes the multi-run control plane's acceptance
// campaign — wfmd driven over HTTP through three phases (fair-share
// under saturation, honest backpressure, daemon crash + restart) —
// and fails hard if any gate is violated.
func runService(ctx context.Context, runs, tasks, slots int) {
	fmt.Printf("== Service: wfmd control plane, %d runs/tenant x %d tasks, %d task slots ==\n", runs, tasks, slots)
	rep, err := experiments.Service(ctx, experiments.ServiceConfig{
		RunsPerTenant: runs,
		TasksPerRun:   tasks,
		TaskSlots:     slots,
	})
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteServiceReport(os.Stdout, rep); err != nil {
		fatal(err)
	}
	if !rep.Gates() {
		fatal(fmt.Errorf("service campaign violated its acceptance gates"))
	}
	fmt.Println("\nAll service gates held: quotas, fair-share ratio, backpressure, crash recovery.")
	fmt.Println()
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

// runResilience executes the flaky-endpoint experiment: a workflow
// against a fault-injecting WfBench service, with retries, backoff, and
// the circuit breaker absorbing the chaos, in both scheduling modes.
// runHealth executes the straggler campaign: each scheduling mode runs
// the workflow with the run-health plane off (the injected tail waited
// out) and on (stragglers flagged, speculative backups raced), and the
// table reports the makespan cut plus detection completeness. A
// non-zero "missing" column or a duplicate journal record is a hard
// failure — the campaign doubles as the CI health-smoke gate.
func runHealth(ctx context.Context, size int, seed int64, delay time.Duration) {
	cfg := experiments.HealthConfig{NumTasks: size, Seed: seed, Latency: delay}
	fmt.Printf("== Health: blast-%d straggler campaign (injected tail %v, speculation on vs off) ==\n", size, delay)
	ms, err := experiments.HealthCampaign(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteHealthTable(os.Stdout, ms); err != nil {
		fatal(err)
	}
	for i := range ms {
		m := &ms[i]
		if missing := m.Missing(); len(missing) > 0 {
			fatal(fmt.Errorf("health %s: injected stragglers never flagged: %v", m.Scheduling, missing))
		}
		if m.TerminalRecords != m.Tasks || m.JournalCompleted != m.Tasks {
			fatal(fmt.Errorf("health %s: journal has %d terminal records for %d tasks (duplicate completion?)",
				m.Scheduling, m.TerminalRecords, m.Tasks))
		}
		if m.ImprovementPct < 25 {
			fatal(fmt.Errorf("health %s: speculation cut makespan by only %.1f%% (%v -> %v), want >= 25%%",
				m.Scheduling, m.ImprovementPct, m.BaselineWall, m.HealthWall))
		}
	}
	fmt.Println()
}

func runResilience(ctx context.Context, size int, seed int64, timeScale, errorRate, rejectRate, latencyMS float64, faultSeed int64, traceSample float64, traceDir string, batching wfm.BatchOptions, memoize bool) {
	cfg := experiments.ResilienceConfig{
		Recipe:      "blast",
		NumTasks:    size,
		Seed:        seed,
		TimeScale:   timeScale,
		Batching:    batching,
		TraceSample: traceSample,
		Memoize:     memoize,
		Profile: wfbench.FaultProfile{
			ErrorRate:     errorRate,
			RejectRate:    rejectRate,
			RetryAfter:    0.25 * timeScale,
			LatencyRate:   0.2,
			Latency:       time.Duration(latencyMS * float64(time.Millisecond)),
			LatencyJitter: time.Duration(latencyMS * float64(time.Millisecond)),
			Seed:          faultSeed,
		},
		Breaker: experiments.DefaultResilienceBreaker(),
	}
	fmt.Printf("== Resilience: %s-%d through a faulty endpoint (error %.2f, reject %.2f, latency %.0fms) ==\n",
		cfg.Recipe, size, errorRate, rejectRate, latencyMS)
	ms, err := experiments.Resilience(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteResilienceTable(os.Stdout, ms); err != nil {
		fatal(err)
	}
	for _, m := range ms {
		writeTrace(traceDir, fmt.Sprintf("resilience_%s_%d_%s", cfg.Recipe, size, m.Scheduling), m.Trace)
		if memoize {
			fmt.Printf("memoized re-run (%s): %d hit(s), %d miss(es), wall %v\n",
				m.Scheduling, m.MemoHits, m.MemoMisses, m.MemoWarmWall)
			if m.MemoHits != m.Tasks || m.MemoMisses != 0 {
				fatal(fmt.Errorf("memoized re-run was not fully served from cache (%d/%d hits)", m.MemoHits, m.Tasks))
			}
		}
	}
	fmt.Println()
}

// runMemo executes the incremental re-execution campaign: cold run,
// unchanged re-run, 1-task edit, and k-task edit over one persistent
// drive and memo cache, in both scheduling modes, asserting the exact
// edit-closure and drive-convergence invariants on every variant.
func runMemo(ctx context.Context, tasks, edits int, seed int64, timeScale float64, batching wfm.BatchOptions) {
	fmt.Printf("== Memoization: %d-task workflow, cold / rerun / edit1 / edit%d ==\n", tasks, edits)
	ms, err := experiments.Memo(ctx, experiments.MemoConfig{
		Tasks:     tasks,
		EditTasks: edits,
		Seed:      seed,
		TimeScale: timeScale / 10, // the campaign runs 4 variants + references per mode
		Batching:  batching,
	})
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteMemoTable(os.Stdout, ms); err != nil {
		fatal(err)
	}
	bad := 0
	for _, m := range ms {
		if !m.Exact || !m.DriveMatch {
			bad++
		}
	}
	if bad > 0 {
		fatal(fmt.Errorf("%d of %d memo variants violated incremental re-execution invariants", bad, len(ms)))
	}
	fmt.Printf("\nAll %d variants re-invoked exactly the edit closure and converged to the reference drive state.\n\n", len(ms))
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
