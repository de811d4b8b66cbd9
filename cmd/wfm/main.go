// Command wfm executes a workflow description through the serverless
// workflow manager — the paper's serverless-workflow-wfbench.py.
//
// Two modes:
//
//   - Direct (default): the workflow JSON already carries api_url
//     endpoints (e.g. from wfgen -target knative -url ...); the manager
//     POSTs to them and uses -workdir as the shared drive. Pair with
//     cmd/wfbench-serve.
//
//     wfm -workflow blast.json -workdir ./wfbench-data
//
//     Direct mode supports durable execution: -journal <dir> records a
//     crash-consistent run journal, SIGINT/SIGTERM wind the run down
//     resumably, and -resume continues a killed run without re-invoking
//     completed tasks. -crash-after-tasks N injects a hard kill for
//     recovery drills.
//
//     wfm -workflow blast.json -journal ./run-journal -crash-after-tasks 20
//     wfm -workflow blast.json -journal ./run-journal -resume
//
//     Direct mode also supports incremental re-execution: -memoize
//     <file> keeps a content-addressed task cache across runs, so an
//     unchanged re-run invokes nothing and an edited workflow re-runs
//     only the edited tasks and their descendants.
//
//     wfm -workflow blast.json -memoize ./blast.memo
//
//   - Simulated (-paradigm): provision the in-process platform for a
//     Table II paradigm, translate, execute, and print the measured
//     execution time, power, CPU, and memory.
//
//     wfm -workflow blast.json -paradigm Kn10wNoPM -time-scale 0.01
//
//   - Service (-submit): hand the workflow to a long-lived wfmd
//     instead of executing it in-process. The client honours the
//     service's backpressure — a 429 with Retry-After is slept on and
//     the submission retried on the resilience layer's backoff
//     schedule — then polls the run to completion and prints its
//     durable result. -detach submits without waiting.
//
//     wfm -workflow blast.json -submit http://127.0.0.1:9433 -tenant team-a -priority high
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"wfserverless/internal/experiments"
	"wfserverless/internal/health"
	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
	"wfserverless/internal/wfmd"
)

// cli holds every flag's value; the manager's and the journal's tuning
// flags are bound by their own packages' RegisterFlags, whose resolve
// halves run once the command line is parsed.
type cli struct {
	workflow, workdir, paradigm, tracePath, memoize, journalDir string
	recorder, chromeTrace, spanLog, telemetry, logLevel         string
	verbose, eager, resume, healthOn, detach                    bool
	crashAfter                                                  int
	pollSec, sample                                             float64

	mgr        wfm.Options
	resolveMgr func() error
	jnl        journal.Options
	resolveJnl func() error
	health     wfm.HealthOptions // in force only under -health, -speculate or -flight-recorder
	submit     wfmd.Client       // in force only under -submit
}

// newFlags registers wfm's flags on fs; the Options literal holds this
// binary's defaults for the manager flags.
func newFlags(fs *flag.FlagSet) *cli {
	c := &cli{mgr: wfm.Options{TimeScale: 1, PhaseDelay: 1, MaxParallel: 512}}
	c.resolveMgr = c.mgr.RegisterFlags(fs)
	c.resolveJnl = c.jnl.RegisterFlags(fs)
	fs.StringVar(&c.workflow, "workflow", "", "workflow description JSON (required)")
	fs.StringVar(&c.workdir, "workdir", "wfbench-data", "shared directory (direct mode)")
	fs.StringVar(&c.paradigm, "paradigm", "", "Table II paradigm for simulated mode (e.g. Kn10wNoPM)")
	fs.BoolVar(&c.verbose, "v", false, "print per-phase breakdown")
	fs.StringVar(&c.tracePath, "trace", "", "write the execution trace (JSON) to this file")
	fs.BoolVar(&c.eager, "eager", false, "shorthand for -schedule dependency")

	fs.StringVar(&c.memoize, "memoize", "", "content-addressed memo cache file (direct mode): unchanged tasks with intact outputs are served from the cache instead of re-invoked")

	fs.StringVar(&c.journalDir, "journal", "", "directory for the durable run journal (direct mode); enables crash recovery")
	fs.BoolVar(&c.resume, "resume", false, "resume the run recorded in -journal instead of starting fresh")
	fs.IntVar(&c.crashAfter, "crash-after-tasks", 0, "crash injection: sync the journal and kill the process after N completed tasks (requires -journal)")

	fs.BoolVar(&c.healthOn, "health", false, "enable the run-health plane: per-endpoint latency baselines and live straggler detection (direct mode)")
	fs.BoolVar(&c.health.SpeculativeRetry, "speculate", false, "re-dispatch a flagged straggler once and take the first completion (implies -health)")
	fs.Float64Var(&c.health.StragglerFactor, "straggler-factor", 0, "flag tasks older than this multiple of their endpoint's running median (0: 3)")
	fs.StringVar(&c.recorder, "flight-recorder", "", "dump the run's last moments as JSONL to this file on panic, interrupt, or failure (implies -health)")

	fs.StringVar(&c.submit.BaseURL, "submit", "", "submit to a wfmd service at this base URL (e.g. http://127.0.0.1:9433) instead of executing locally")
	fs.StringVar(&c.submit.Tenant, "tenant", "", "tenant name for -submit (empty: the service default)")
	fs.StringVar(&c.submit.Priority, "priority", "", "priority class for -submit: low, normal, or high")
	fs.BoolVar(&c.detach, "detach", false, "with -submit: print the accepted run ID and exit without waiting")
	fs.Float64Var(&c.pollSec, "poll", 0.2, "status poll interval for -submit, wall seconds")

	fs.Float64Var(&c.sample, "sample", 0, "trace sampling ratio in (0,1]: fraction of workflow roots recorded (0: off unless a trace output is set)")
	fs.StringVar(&c.chromeTrace, "chrome-trace", "", "write spans as Chrome trace-event JSON (load at ui.perfetto.dev or chrome://tracing)")
	fs.StringVar(&c.spanLog, "span-log", "", "write spans as flat JSONL, one span per line")
	fs.StringVar(&c.telemetry, "telemetry-addr", "", "serve live telemetry on this address: /metrics, /healthz, /debug/pprof")
	fs.StringVar(&c.logLevel, "log-level", "", "structured event logging to stderr: debug, info, warn, or error (empty: off)")
	return c
}

func main() {
	c := newFlags(flag.CommandLine)
	flag.Parse()
	if c.workflow == "" {
		fatal(fmt.Errorf("-workflow is required"))
	}
	if err := c.resolveMgr(); err != nil {
		fatal(err)
	}
	if c.eager {
		c.mgr.Scheduling = wfm.ScheduleDependency
	}
	w, err := wfformat.Load(c.workflow)
	if err != nil {
		fatal(err)
	}
	if c.submit.BaseURL != "" {
		runSubmit(c)
		return
	}

	// Observability plane, shared by both modes. A requested trace
	// output implies full sampling unless -sample says otherwise.
	ratio := c.sample
	if ratio == 0 && (c.chromeTrace != "" || c.spanLog != "") {
		ratio = 1
	}
	var tracer *obs.Tracer
	if ratio > 0 {
		tracer = obs.NewTracer(obs.Options{SampleRatio: ratio})
	}
	var logger *slog.Logger
	if c.logLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(c.logLevel)); err != nil {
			fatal(fmt.Errorf("-log-level: %w", err))
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}
	// The straggler tracker is born with the run, after telemetry is
	// already listening; Options.Health.OnTracker publishes it here so
	// the /metrics page grows the per-endpoint families mid-run.
	var stragglerTracker atomic.Pointer[health.Tracker]
	var monitor *wfm.Monitor
	if c.telemetry != "" {
		monitor = wfm.NewMonitor()
		startTelemetry(c.telemetry, func(w io.Writer) error {
			if err := monitor.WriteMetrics(w); err != nil {
				return err
			}
			if tr := stragglerTracker.Load(); tr != nil {
				return tr.WriteMetrics(w)
			}
			return nil
		})
	}

	if c.paradigm != "" {
		tn, err := c.tunables(flag.CommandLine)
		if err != nil {
			fatal(err)
		}
		tn.Manager.Monitor, tn.Manager.Logger, tn.Tracer = monitor, logger, tracer
		runSimulated(w, c, tn)
		return
	}

	// SIGINT/SIGTERM cancel the run context: in-flight tasks wind down,
	// the journal and trace outputs are flushed, and the partial result
	// is printed before exiting non-zero — so an interrupted run is
	// resumable with -resume rather than silently torn.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var jnl *journal.Journal
	if c.journalDir != "" {
		if err := c.resolveJnl(); err != nil {
			fatal(err)
		}
		jnl, err = journal.Open(c.journalDir, c.jnl)
		if err != nil {
			fatal(err)
		}
		if jnl.Torn() {
			fmt.Fprintln(os.Stderr, "wfm: journal had a torn tail (interrupted writer); truncated to the last intact record")
		}
	}
	if c.resume && jnl == nil {
		fatal(fmt.Errorf("-resume requires -journal"))
	}

	var afterDone func(int)
	if c.crashAfter > 0 {
		if jnl == nil {
			fatal(fmt.Errorf("-crash-after-tasks requires -journal"))
		}
		afterDone = func(done int) {
			if done >= c.crashAfter {
				jnl.Sync()
				fmt.Fprintf(os.Stderr, "wfm: crash injection: killing the process after %d completed tasks\n", done)
				os.Exit(137)
			}
		}
	}

	drive, err := sharedfs.NewDisk(c.workdir)
	if err != nil {
		fatal(err)
	}
	var cache *memo.Cache
	if c.memoize != "" {
		cache, err = memo.Open(c.memoize)
		if err != nil {
			fatal(err)
		}
		if dropped, repaired := cache.Recovered(); repaired {
			fmt.Fprintf(os.Stderr, "wfm: memo cache was corrupt; dropped %d unusable byte(s), affected tasks will re-execute\n", dropped)
		}
	}
	// Run-health plane: -speculate and -flight-recorder imply -health.
	var flightRec *health.FlightRecorder
	var healthOpts *wfm.HealthOptions
	if c.healthOn || c.health.SpeculativeRetry || c.recorder != "" {
		if c.recorder != "" {
			flightRec = health.NewFlightRecorder(0)
		}
		healthOpts = &c.health
		healthOpts.Recorder = flightRec
		healthOpts.OnTracker = func(tr *health.Tracker) { stragglerTracker.Store(tr) }
	}
	// dumpRecorder writes the crash flight recorder next to whatever
	// went wrong: the last ring of structured events, as JSONL.
	dumpRecorder := func(reason string) {
		if flightRec == nil {
			return
		}
		f, err := os.Create(c.recorder)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfm: flight recorder:", err)
			return
		}
		if err := flightRec.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "wfm: flight recorder:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "wfm: flight recorder:", err)
		}
		fmt.Fprintf(os.Stderr, "wfm: flight recorder (%s): %d event(s), %d dropped -> %s\n",
			reason, len(flightRec.Events()), flightRec.Dropped(), c.recorder)
	}
	defer func() {
		if p := recover(); p != nil {
			dumpRecorder("panic")
			panic(p)
		}
	}()

	// The flags filled in the tunings; the rest is what this process built.
	opts := c.mgr
	opts.Drive, opts.Journal, opts.Memoize = drive, jnl, cache
	opts.Tracer, opts.Monitor, opts.Logger = tracer, monitor, logger
	opts.Health, opts.AfterTaskDone = healthOpts, afterDone
	mgr, err := wfm.New(opts)
	if err != nil {
		fatal(err)
	}
	var res *wfm.Result
	var runErr error
	if c.resume {
		res, runErr = mgr.Resume(ctx, w)
	} else {
		res, runErr = mgr.Run(ctx, w)
	}
	// Flush everything the run produced — journal, traces, partial
	// result — before deciding the exit code, so an interrupted run
	// still leaves a consistent journal and its outputs behind.
	if jnl != nil {
		if cerr := jnl.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "wfm: closing journal:", cerr)
		}
	}
	if cache != nil {
		if cerr := cache.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "wfm: closing memo cache:", cerr)
		}
	}
	switch {
	case ctx.Err() != nil:
		dumpRecorder("interrupt")
	case runErr != nil:
		dumpRecorder("run failure")
	case res != nil && len(res.Failed) > 0:
		dumpRecorder("task failures")
	}
	if res != nil {
		if c.tracePath != "" {
			f, err := os.Create(c.tracePath)
			if err != nil {
				fatal(err)
			}
			if err := wfm.TraceOf(res).WriteJSON(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("trace:     %s\n", c.tracePath)
		}
		writeSpanOutputs(wfm.TraceOf(res), c.chromeTrace, c.spanLog)
		printResult(res, c.verbose)
	}
	if runErr != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "wfm: interrupted; resume with -resume and the same -journal")
			os.Exit(130)
		}
		fatal(runErr)
	}
}

// runSubmit is the service-client mode: post the workflow to wfmd
// (riding out backpressure via the shared backoff policy), then poll
// the run to a terminal state and print its durable result. SIGINT
// stops waiting but leaves the run executing server-side.
func runSubmit(f *cli) {
	raw, err := os.ReadFile(f.workflow)
	if err != nil {
		fatal(err)
	}
	// The submit retries ride the manager's retry flags.
	c := &f.submit
	c.RetryBackoff, c.RetryBackoffMax, c.MaxRetries = f.mgr.RetryBackoff, f.mgr.RetryBackoffMax, f.mgr.Retries
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := c.Submit(ctx, raw)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("run:       %s (tenant %s, priority %s, %d tasks, %s)\n",
		st.ID, st.Tenant, st.Priority, st.Tasks, st.State)
	if f.detach {
		fmt.Printf("status:    %s/v1/runs/%s\n", c.BaseURL, st.ID)
		return
	}
	final, err := c.Wait(ctx, st.ID, time.Duration(f.pollSec*float64(time.Second)))
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "wfm: interrupted; run %s keeps executing server-side\n", st.ID)
			os.Exit(130)
		}
		fatal(err)
	}
	rr, err := c.Result(ctx, st.ID)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workflow:  %s\n", rr.Workflow)
	fmt.Printf("state:     %s\n", rr.State)
	fmt.Printf("tasks:     %d/%d completed\n", rr.Completed, rr.Tasks)
	if rr.Resumed {
		fmt.Printf("resume:    continued a prior attempt, %d invocation(s) skipped\n", rr.Recovered)
	}
	if rr.Memoized > 0 {
		fmt.Printf("memoize:   %d hit(s)\n", rr.Memoized)
	}
	if rr.Retries > 0 {
		fmt.Printf("retries:   %d\n", rr.Retries)
	}
	fmt.Printf("makespan:  %.2f s (wall %.2f s)\n", rr.MakespanS, rr.WallS)
	if len(rr.FailedTasks) > 0 {
		fmt.Printf("FAILED:    %v\n", rr.FailedTasks)
	}
	if rr.Error != "" {
		fmt.Printf("error:     %s\n", rr.Error)
	}
	if final.State != wfmd.StateSucceeded {
		os.Exit(1)
	}
}

// startTelemetry serves the live telemetry plane in the background:
// manager progress on /metrics, liveness on /healthz, and profiling
// under /debug/pprof.
func startTelemetry(addr string, metrics func(io.Writer) error) {
	mux := obs.TelemetryMux(metrics)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("telemetry: http://%s (/metrics /healthz /debug/pprof)\n", ln.Addr())
	go http.Serve(ln, mux)
}

// writeSpanOutputs exports the collected spans in the requested
// formats. A nil or empty trace (tracing off, or nothing sampled)
// writes nothing.
func writeSpanOutputs(tr *wfm.Trace, chromePath, logPath string) {
	if tr == nil || len(tr.Spans) == 0 {
		if chromePath != "" || logPath != "" {
			fmt.Fprintln(os.Stderr, "wfm: no spans collected, trace outputs skipped")
		}
		return
	}
	writeTo := func(path string, write func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := write(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if chromePath != "" {
		writeTo(chromePath, tr.WriteChromeTrace)
		fmt.Printf("chrome trace: %s (%d spans, trace %s)\n", chromePath, len(tr.Spans), tr.TraceID)
	}
	if logPath != "" {
		writeTo(logPath, tr.WriteSpanLog)
		fmt.Printf("span log:  %s (%d spans)\n", logPath, len(tr.Spans))
	}
}

// tunables builds simulated mode's parameters: the experiments' defaults
// at this command line's -time-scale, with every manager flag that was
// set on fs (the parsed command line) overriding the manager template and
// every unset one keeping the template's value, not this binary's
// direct-mode default.
func (c *cli) tunables(fs *flag.FlagSet) (experiments.Tunables, error) {
	tn := experiments.DefaultTunables()
	tmpl := flag.NewFlagSet("", flag.ContinueOnError)
	resolve := tn.Manager.RegisterFlags(tmpl)
	var err error
	fs.Visit(func(f *flag.Flag) {
		if tmpl.Lookup(f.Name) != nil && err == nil {
			err = tmpl.Set(f.Name, f.Value.String())
		}
	})
	if err == nil {
		err = resolve()
	}
	if c.eager {
		tn.Manager.Scheduling = wfm.ScheduleDependency
	}
	tn.TimeScale, tn.Manager.TimeScale = c.mgr.TimeScale, 0 // the session sets the manager's
	return tn, err
}

func runSimulated(w *wfformat.Workflow, c *cli, tn experiments.Tunables) {
	spec, err := experiments.ByID(experiments.Paradigm(c.paradigm))
	if err != nil {
		fatal(err)
	}
	m, err := experiments.RunWorkflow(context.Background(), spec, w, tn)
	if err != nil {
		fatal(err)
	}
	writeSpanOutputs(m.Trace, c.chromeTrace, c.spanLog)
	fmt.Printf("workflow:      %s (%d tasks)\n", m.Workflow, m.Tasks)
	fmt.Printf("paradigm:      %s\n", m.Paradigm)
	fmt.Printf("schedule:      %s\n", tn.Manager.Scheduling)
	fmt.Printf("execution:     %.2f s (nominal; wall %v)\n", m.MakespanS, m.Wall)
	fmt.Printf("power:         %.1f W mean, %.0f J\n", m.MeanPowerW, m.EnergyJ)
	fmt.Printf("cpu usage:     %.2f cores mean (%.2f max, busy %.2f)\n", m.MeanCPUCores, m.MaxCPUCores, m.MeanBusyCores)
	fmt.Printf("memory usage:  %.2f GB mean (%.2f max)\n", m.MeanMemGB, m.MaxMemGB)
	fmt.Printf("cold starts:   %d   requests: %d   failures: %d   scale stalls: %d\n",
		m.ColdStarts, m.Requests, m.Failures, m.ScaleStalls)
}

func printResult(res *wfm.Result, verbose bool) {
	fmt.Printf("workflow:  %s\n", res.Workflow)
	fmt.Printf("schedule:  %s\n", res.Scheduling)
	fmt.Printf("functions: %d (+header/tail)\n", len(res.Tasks)-2)
	fmt.Printf("phases:    %d\n", len(res.Phases)-2)
	fmt.Printf("makespan:  %.2f s (wall %v)\n", res.Makespan, res.Wall)
	if r := res.Resume; r != nil {
		fmt.Printf("resume:    %d recorded completed, %d invocations skipped, %d re-executed (outputs vanished)\n",
			r.RecordedCompleted, r.SkippedInvocations, r.Reexecuted)
	}
	if mr := res.Memo; mr != nil {
		fmt.Printf("memoize:   %d hit(s), %d miss(es), %s of outputs served from cache (%d entries)\n",
			mr.Hits, mr.Misses, byteCount(mr.SkippedOutputBytes), mr.CacheEntries)
	}
	if h := res.Health; h != nil {
		fmt.Printf("health:    %d straggler(s) flagged, %d speculative backup(s), %d won\n",
			len(h.Stragglers), h.SpeculativeRetries, h.SpeculativeWins)
		for _, e := range h.Endpoints {
			fmt.Printf("  endpoint %-40s n=%-5d p50=%.3fs p95=%.3fs p99=%.3fs fail=%d cold=%d\n",
				e.Endpoint, e.Attempts, e.P50, e.P95, e.P99, e.Failures, e.ColdStarts)
		}
		for _, s := range h.Stragglers {
			fmt.Printf("  straggler %s at %v (endpoint median %v)\n",
				s.Task, s.Age.Round(time.Millisecond), s.Median.Round(time.Millisecond))
		}
	}
	var queue time.Duration
	n := 0
	for name, tr := range res.Tasks {
		if name == wfm.HeaderName || name == wfm.TailName {
			continue
		}
		queue += tr.QueueWait()
		n++
	}
	if n > 0 {
		fmt.Printf("queueing:  %v mean ready->start\n", queue/time.Duration(n))
	}
	for _, msg := range res.Warnings {
		fmt.Printf("warning:   %s\n", msg)
	}
	for _, bt := range res.Breakers {
		fmt.Printf("breaker:   %s %s->%s at %v (failure rate %.2f)\n",
			bt.Endpoint, bt.From, bt.To, bt.At.Round(time.Millisecond), bt.FailureRate)
	}
	if len(res.Failed) > 0 {
		fmt.Printf("FAILED:    %v\n", res.Failed)
	}
	if verbose {
		for _, ps := range wfm.PhaseBreakdown(res) {
			fmt.Printf("  phase %-3d functions=%-4d span=%v\n", ps.Phase, ps.Functions, ps.WallSpan)
		}
		names := make([]string, 0, len(res.Tasks))
		for n := range res.Tasks {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			tr := res.Tasks[n]
			fmt.Printf("  %-40s phase=%-3d %8v -> %8v\n", tr.Name, tr.Phase, tr.Start, tr.End)
		}
	}
}

// byteCount renders n in a human scale (B, KiB, MiB, ...).
func byteCount(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfm:", err)
	os.Exit(1)
}
