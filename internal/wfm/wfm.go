// Package wfm implements the paper's core contribution: a prototype
// workflow management system for serverless (Section III-C). The manager
// reads a workflow description in the WfCommons-derived JSON format —
// each function annotated by the translator with the HTTP endpoint that
// executes it — translates it into a DAG, and executes the DAG phase by
// phase: all functions of a phase are collected and invoked
// simultaneously by sending HTTP POST requests to their respective
// api_url addresses. Before invoking each function the manager checks
// that its input files are available on the shared drive, and a brief
// delay between phases gives preceding functions time to publish their
// outputs, exactly as described in the paper. A header (starting
// function) and tail (finishing function) frame every execution.
//
// The manager is platform-agnostic: it works against "any serverless
// platform that handles invocations through HTTP requests" — here the
// in-process Knative-like platform, the local-container baseline, or a
// real endpoint.
//
// There is one execution core (runLoop): a dag.Scheduler tracks the
// ready frontier incrementally, a worker pool runs each released
// function — wait for its inputs on the drive (woken by sharedfs change
// notification rather than polling), then invoke — and completions feed
// back into a single-threaded event loop. Options.Scheduling selects
// only when ready functions are released to the pool. SchedulePhases,
// the default, is the paper's model described above: ready functions are
// held until nothing is in flight, the inter-phase delay is slept, and
// they are released together. ScheduleDependency releases each function
// the instant its parents complete. The dependency guarantees, the
// failure rules and the Result shape are identical; what differs is the
// dead time — straggler barriers plus one fixed delay per DAG level.
package wfm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"wfserverless/internal/dag"
	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// HeaderName and TailName are the synthetic framing functions the
// manager adds around every workflow.
const (
	HeaderName = "__workflow_header"
	TailName   = "__workflow_tail"
)

// Scheduling selects when the manager releases ready functions for
// invocation; everything else about a run is the same for both values.
type Scheduling int

const (
	// SchedulePhases is the paper's execution model: all functions of a
	// topological level are released simultaneously, the manager waits
	// for the whole level to drain, and a brief fixed delay separates
	// consecutive levels. Every phase is as slow as its slowest
	// straggler; kept as the default for paper fidelity.
	SchedulePhases Scheduling = iota
	// ScheduleDependency is the event-driven model: each function is
	// released the moment all of its DAG parents have completed — no
	// phase barriers and no inter-phase delay. Identical task sets and
	// dependency guarantees, strictly less dead time.
	ScheduleDependency
)

// String names the mode for flags and reports.
func (s Scheduling) String() string {
	switch s {
	case SchedulePhases:
		return "phases"
	case ScheduleDependency:
		return "dependency"
	}
	return fmt.Sprintf("Scheduling(%d)", int(s))
}

// ParseScheduling maps a flag value onto a Scheduling mode.
func ParseScheduling(s string) (Scheduling, error) {
	switch s {
	case "phases", "phase", "":
		return SchedulePhases, nil
	case "dependency", "dep", "eager":
		return ScheduleDependency, nil
	}
	return 0, fmt.Errorf("wfm: unknown scheduling mode %q (want phases or dependency)", s)
}

// Options configures a Manager.
type Options struct {
	// Drive is the shared drive used for input checks and for staging
	// the workflow's external inputs; required.
	Drive sharedfs.Drive
	// Client issues the HTTP invocations; nil uses a dedicated client
	// with a large connection pool (a phase can hold hundreds of
	// simultaneous requests).
	Client *http.Client
	// TimeScale converts the nominal paper-second durations below into
	// wall time; zero defaults to 1.
	TimeScale float64
	// PhaseDelay is the paper's inter-phase delay in nominal seconds
	// ("a brief delay of one second is introduced between each
	// workflow phase"); zero defaults to 1.
	PhaseDelay float64
	// InputWait bounds each function's wait for its input files on the
	// shared drive, nominal seconds; zero defaults to 30.
	InputWait float64
	// MaxParallel caps simultaneous HTTP requests; zero means
	// unlimited (the paper's behaviour).
	MaxParallel int
	// ContinueOnError keeps executing functions that do not descend
	// from a failed one (its descendants are skipped either way); by
	// default the first failure cancels everything queued or in flight.
	ContinueOnError bool
	// Retries re-issues failed invocations up to this many extra
	// times (transport errors, 5xx, and 429 responses only) — basic
	// fault-tolerance for flaky endpoints.
	Retries int
	// RetryBackoff is the base delay before the first retry, nominal
	// seconds. Subsequent retries back off exponentially with full
	// jitter — each delay is uniform in [0, min(RetryBackoffMax,
	// RetryBackoff·2^attempt)] — so a burst of failures does not
	// re-stampede the endpoint in lockstep. A Retry-After carried by a
	// 429/503 response overrides the schedule for that retry. Zero
	// keeps retries immediate.
	RetryBackoff float64
	// RetryBackoffMax caps any single retry delay, nominal seconds;
	// zero defaults to 30.
	RetryBackoffMax float64
	// TaskTimeout bounds one task's entire invocation — every attempt
	// plus the backoff sleeps between them — in nominal seconds, so a
	// stalled pod cannot wedge a worker indefinitely. Zero disables.
	// Expiry is terminal for the task (ErrTaskTimeout): its time
	// budget is spent, so no further retries are attempted.
	TaskTimeout float64
	// Breaker enables a per-endpoint circuit breaker over invocations:
	// when an endpoint's recent failure rate crosses the threshold the
	// breaker opens and sheds attempts immediately (ErrCircuitOpen)
	// instead of burning Retries × tasks attempts against a dead
	// service, then probes it half-open after a cooldown. Transitions
	// are surfaced in Result.Breakers and the trace.
	Breaker BreakerOptions
	// Batching coalesces ready invocations bound for the same endpoint
	// into framed /invoke-batch POSTs instead of one HTTP request per
	// task (see BatchOptions). Per-task retry, timeout, breaker,
	// journal, and tracing semantics are unchanged; disabled (the zero
	// value) the wire format is byte-identical to unbatched releases.
	Batching BatchOptions
	// SkipStageInputs disables writing the workflow's external input
	// files to the drive before execution. Staging is on by default
	// (the zero value), matching the paper's header function; callers
	// that pre-populate the drive themselves set this to true.
	SkipStageInputs bool
	// Scheduling selects the release rule; the zero value is
	// SchedulePhases, the paper's phase barrier.
	Scheduling Scheduling
	// Tracer records distributed-trace spans for the run: a root span
	// per workflow, a span per task (backdated to when the task became
	// ready, annotated with queueing latency and attempts), and a span
	// per invocation attempt whose context is injected as a W3C
	// traceparent header on the HTTP POST. Nil disables tracing; an
	// unsampled or disabled run executes the identical hot path.
	Tracer *obs.Tracer
	// Monitor receives live progress counters (tasks ready, running,
	// done, failed; retries; open breakers) and the invocation-latency
	// histogram, for the -telemetry-addr /metrics endpoint. Nil
	// disables monitoring.
	Monitor *Monitor
	// Logger receives structured run-lifecycle events (run start/end,
	// task failures, breaker transitions, stragglers). Nil disables
	// logging.
	Logger *slog.Logger
	// Journal, when set, makes the run durable: lifecycle events (run
	// header with workflow fingerprint, task started/completed/failed,
	// run end) are appended to the write-ahead log so a crashed run can
	// be continued with Resume. Run requires the journal to be empty (a
	// fresh directory); Resume requires it to hold a matching run. Nil
	// disables journaling; the hot path is identical.
	Journal Journal
	// Memoize, when set, enables content-addressed incremental
	// re-execution across runs: before any dispatch the manager
	// resolves every task's fingerprint bottom-up over the compiled DAG
	// (wfformat.TaskFingerprints), probes the cache, and seeds tasks
	// whose fingerprint is cached and whose recorded outputs still
	// verify on the shared drive as completed — they are never invoked
	// and appear in the Result with Memoized=true. Successful
	// completions populate the cache. A hit whose outputs vanished (or
	// diverged, on content-addressed drives) re-runs, exactly like
	// Resume's re-executed tasks. Composes with Journal: cache hits are
	// journaled as task-memoized records and count as completions on
	// resume. Nil disables memoization; the hot path is identical.
	Memoize *memo.Cache
	// AfterTaskDone, when set, is called synchronously after each task
	// completes successfully (and after its completion is journaled),
	// with the cumulative count of tasks completed by this process. It
	// exists for crash-injection harnesses (-crash-after-tasks) and
	// progress hooks; it must be fast and safe for concurrent callers'
	// view of the count to be monotonic but unordered.
	AfterTaskDone func(completed int)
	// Health enables the run-health plane: streaming per-endpoint
	// latency baselines, straggler detection against each endpoint's
	// running median (optionally racing a speculative backup attempt),
	// and a crash flight recorder. Nil disables it; the dispatch hot
	// path is then allocation-identical to previous releases.
	Health *HealthOptions
	// Gate, when set, is acquired around every task invocation (once
	// per task, not per attempt, so retries and batching compose). It
	// is how an embedding service — wfmd's fair-share admission layer —
	// throttles many concurrent Managers against a shared invocation
	// budget without the Managers knowing about each other. Acquire
	// blocking simply delays the task's dispatch; an Acquire error
	// (only expected when ctx is cancelled) fails the task like any
	// other pre-dispatch cancellation. Nil disables the gate; the hot
	// path is identical.
	Gate TaskGate
}

// Journal is where a run writes its lifecycle records: a
// *journal.Journal of its own, or one run's view of a log many runs
// share (wfmd's service log). Append is called by one goroutine at a
// time and must copy data; Records and Torn are what the journal held,
// and whether it ended torn, when it was opened.
type Journal interface {
	Append(kind uint8, data []byte) error
	Sync() error
	Records() []journal.Record
	Torn() bool
}

// TaskGate admits task invocations. Implementations must be safe for
// concurrent use; Release is called exactly once per successful
// Acquire. Acquire should return promptly with ctx.Err() once ctx is
// cancelled, and should not fail for any other reason.
type TaskGate interface {
	Acquire(ctx context.Context) error
	Release()
}

// Manager executes workflows.
type Manager struct {
	opts Options
}

// New returns a Manager for the options.
func New(opts Options) (*Manager, error) {
	if opts.Drive == nil {
		return nil, errors.New("wfm: Options need a Drive")
	}
	if j, ok := opts.Journal.(*journal.Journal); ok && j == nil {
		opts.Journal = nil // a nil *journal.Journal is no journal
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 1
	}
	if opts.TimeScale < 0 {
		return nil, errors.New("wfm: negative TimeScale")
	}
	if opts.PhaseDelay == 0 {
		opts.PhaseDelay = 1
	}
	if opts.InputWait == 0 {
		opts.InputWait = 30
	}
	if opts.Client == nil {
		// Size the connection pool to the configured parallelism rather
		// than a fixed 1024: MaxParallel bounds how many requests can be
		// in flight, so idle connections beyond it only hold sockets.
		pool := opts.MaxParallel
		if pool <= 0 {
			pool = 1024
		}
		tr := &http.Transport{
			MaxIdleConns:        pool,
			MaxIdleConnsPerHost: pool,
			IdleConnTimeout:     90 * time.Second,
			// Bodies are compact JSON (or batch frames); bigger socket
			// buffers keep large fan-outs off the syscall floor, and
			// gzip on loopback-scale payloads costs more CPU than the
			// bytes it saves.
			WriteBufferSize:    64 << 10,
			ReadBufferSize:     64 << 10,
			DisableCompression: true,
		}
		opts.Client = &http.Client{Transport: tr}
	}
	switch opts.Scheduling {
	case SchedulePhases, ScheduleDependency:
	default:
		return nil, fmt.Errorf("wfm: unknown Scheduling %d", opts.Scheduling)
	}
	if opts.Retries < 0 {
		return nil, errors.New("wfm: negative Retries")
	}
	if opts.RetryBackoff < 0 || opts.RetryBackoffMax < 0 || opts.TaskTimeout < 0 {
		return nil, errors.New("wfm: negative RetryBackoff/RetryBackoffMax/TaskTimeout")
	}
	if err := opts.Breaker.validate(); err != nil {
		return nil, err
	}
	if err := opts.Batching.validate(); err != nil {
		return nil, err
	}
	if err := opts.Health.validate(); err != nil {
		return nil, err
	}
	return &Manager{opts: opts}, nil
}

func (m *Manager) scaled(nominalSeconds float64) time.Duration {
	return time.Duration(nominalSeconds * m.opts.TimeScale * float64(time.Second))
}

// TaskResult records one function invocation.
type TaskResult struct {
	Name     string
	Category string
	Phase    int
	// Ready is when the task was released to the worker pool: under
	// SchedulePhases, when its phase was released; under
	// ScheduleDependency, when its last parent completed (or run start
	// for roots). The gap to Start is time spent queued behind
	// MaxParallel, waiting for input files, or waiting on Options.Gate.
	Ready time.Duration
	Start time.Duration // offset from run start (wall)
	End   time.Duration
	// Attempts is how many invocation attempts the resilience layer
	// made for the task, including attempts shed by an open circuit
	// breaker; 1 means it succeeded (or failed terminally) first try.
	Attempts int
	// Recovered marks a task restored from the run journal on Resume:
	// it completed in a previous process and was not re-invoked. Its
	// timings are zero and Response is nil.
	Recovered bool
	// Memoized marks a cache-hit task under Options.Memoize: an earlier
	// run completed identical content and its outputs verified on the
	// drive, so it was seeded as completed and never invoked. Its
	// timings are zero and Response is nil.
	Memoized bool
	Response *wfbench.Response
	Err      error
}

// QueueWait returns the ready→start queueing latency: how long the task
// sat runnable before its HTTP invocation was issued.
func (tr *TaskResult) QueueWait() time.Duration {
	if tr.Start < tr.Ready {
		return 0
	}
	return tr.Start - tr.Ready
}

// Result summarizes one workflow execution.
type Result struct {
	Workflow string
	// Scheduling is the mode that produced this result.
	Scheduling Scheduling
	// Phases lists the function names per topological level, framed by
	// the synthetic header and tail. Under SchedulePhases a fresh run
	// releases exactly these groups in order; under ScheduleDependency
	// they are kept for comparability — execution order is event-driven.
	Phases [][]string
	// Makespan is the nominal end-to-end time in paper seconds
	// (wall time divided by TimeScale).
	Makespan float64
	// Wall is the measured wall-clock duration.
	Wall time.Duration
	// Tasks holds per-function results keyed by name.
	Tasks map[string]*TaskResult
	// Failed lists functions that returned errors, sorted.
	Failed []string
	// Warnings records non-fatal anomalies the run pressed on through
	// (e.g. a resume under different options, a repaired memo cache, a
	// journal that stopped accepting appends).
	Warnings []string
	// Breakers lists circuit-breaker state transitions observed during
	// the run, in time order (empty unless Options.Breaker is enabled
	// and an endpoint misbehaved).
	Breakers []BreakerTransition
	// Resume summarizes what a resumed run recovered from its journal;
	// nil for fresh runs.
	Resume *ResumeReport
	// Memo summarizes what the memo cache contributed; nil unless
	// Options.Memoize was set.
	Memo *MemoReport
	// Health carries the run-health summary — per-endpoint baselines,
	// flagged stragglers, speculation accounting; nil unless
	// Options.Health was set.
	Health *HealthReport
	// TraceID identifies the run's distributed trace when the run was
	// sampled (Options.Tracer set and the root span recorded).
	TraceID string
	// Spans holds the spans collected for this run across every layer
	// that shares the manager's Tracer — the WFM itself plus, for the
	// in-process platform, the platform and wfbench spans.
	Spans []obs.Span
}

// Compiled is a workflow made ready to execute, once: validated,
// compiled to the CSR the run loop drains, and planned (request bodies,
// endpoint URLs, input lists). Nothing in it depends on a Manager's
// options and nothing in it changes, so whoever checked that a workflow
// is runnable — wfmd at admission — hands the same value to the run.
type Compiled struct {
	w    *wfformat.Workflow
	csr  *dag.CSR
	plan *invocationPlan
}

// Len returns the number of tasks.
func (c *Compiled) Len() int { return c.plan.len() }

// fingerprint is wfformat.Fingerprint of the workflow, over the name
// order the compile already produced.
func (c *Compiled) fingerprint() wfformat.Hash {
	return wfformat.FingerprintTasks(c.w.Name, c.plan.tasks)
}

// CompileRunnable is the one definition of a workflow a Manager will
// execute: structurally valid (wfformat's ValidateCompile, whose graph
// the run drains), translated — an api_url on every task — and
// plannable. Run and Resume start here, and so does wfmd's admission
// check, so the service never accepts a submission its own manager then
// refuses as not runnable. The workflow must not be modified afterwards.
func CompileRunnable(w *wfformat.Workflow) (*Compiled, error) {
	csr, tasks, ext, err := w.ValidateCompile()
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		if t.Command.APIURL == "" {
			return nil, fmt.Errorf("wfm: task %q has no api_url; run a translator first", t.Name)
		}
	}
	p, err := newInvocationPlan(tasks, ext)
	if err != nil {
		return nil, err
	}
	return &Compiled{w: w, csr: csr, plan: p}, nil
}

// Run executes the workflow under the configured Scheduling rule. Every
// task must carry an api_url (set by a translator); Run validates the
// workflow first. With Options.Journal set the journal must be empty —
// continuing a previous run is Resume's job.
func (m *Manager) Run(ctx context.Context, w *wfformat.Workflow) (*Result, error) {
	c, err := CompileRunnable(w)
	if err != nil {
		return nil, err
	}
	if j := m.opts.Journal; j != nil && len(j.Records()) > 0 {
		return nil, errors.New("wfm: journal already holds a run; use Resume (or point -journal at a fresh directory)")
	}
	return m.run(ctx, c, nil)
}

// Resume continues a journaled run that a previous process started: it
// replays Options.Journal, validates the recorded workflow fingerprint
// against w, verifies that every recorded-completed task's outputs are
// still on the shared drive (tasks whose products vanished re-run), and
// executes only what remains. An empty journal degenerates to a fresh
// Run. The Result covers the whole workflow — recovered tasks appear
// with Recovered=true and zero-duration timings — and Result.Resume
// reports how many invocations the journal saved.
func (m *Manager) Resume(ctx context.Context, w *wfformat.Workflow) (*Result, error) {
	if m.opts.Journal == nil {
		return nil, errors.New("wfm: Resume needs Options.Journal")
	}
	c, err := CompileRunnable(w)
	if err != nil {
		return nil, err
	}
	return m.ResumeCompiled(ctx, c)
}

// ResumeCompiled is Resume of a workflow compiled beforehand.
func (m *Manager) ResumeCompiled(ctx context.Context, c *Compiled) (*Result, error) {
	j := m.opts.Journal
	if j == nil {
		return nil, errors.New("wfm: Resume needs Options.Journal")
	}
	if len(j.Records()) == 0 {
		return m.run(ctx, c, nil)
	}
	rec, err := m.recoverRun(c, j.Records(), j.Torn())
	if err != nil {
		return nil, err
	}
	m.verifyOutputs(rec)
	return m.run(ctx, c, rec)
}

// run drives one execution (fresh or resumed): it opens the journal's
// run framing — header for fresh runs, resume marker for recovered ones
// — composes the run's sinks, hands the run state to runLoop, and emits
// the run-end transition with the status the loop exited with. The
// sinks' sticky errors are read after it, so a failed run-end record or
// final flush is a warning like any other.
func (m *Manager) run(ctx context.Context, c *Compiled, rec *recovery) (*Result, error) {
	w, csr, p := c.w, c.csr, c.plan
	st := &runState{rec: rec}
	if m.opts.Journal != nil {
		st.rj = m.newRunJournal(c, rec)
	}
	if m.opts.Memoize != nil {
		st.memo = m.probeMemo(csr, p, rec)
	}
	st.sinks = m.newSinks(st, p)
	if m.opts.Health != nil {
		st.health = m.newHealthState(st)
		defer st.health.tracker.Close()
	}
	res := &Result{
		Workflow:   w.Name,
		Scheduling: m.opts.Scheduling,
		Tasks:      make(map[string]*TaskResult, p.len()+2),
	}
	st.emit(transition{kind: tRunStart, id: -1, n: p.len(), res: res})
	if st.memo != nil {
		st.emit(transition{kind: tMemoProbe, id: -1, memo: st.memo})
	}
	// The framing records must survive even an immediate crash: sync
	// them through before the first task is dispatched.
	if st.rj != nil {
		if err := st.rj.j.Sync(); err != nil {
			return nil, fmt.Errorf("wfm: journal: %w", err)
		}
	}

	err := m.runLoop(ctx, c, st, res)
	status := runEndOK
	switch {
	case ctx.Err() != nil:
		status = runEndCancelled
	case err != nil:
		status = runEndFailed
	}
	st.emit(transition{kind: tRunEnd, id: -1, n: int(status), res: res})

	if rec != nil {
		r := rec.report
		res.Resume = &r
		if rec.header.OptionsHash != m.opts.optionsHash() {
			res.Warnings = append(res.Warnings,
				"resume: options differ from the original run (journal records a different options hash)")
		}
	}
	if st.memo != nil {
		res.Memo = st.memo.report()
		if res.Memo.CacheRepaired {
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"memo: cache file was corrupt; %d unusable byte(s) dropped, affected entries re-executed",
				res.Memo.CacheDroppedBytes))
		}
		if merr := st.memo.cache.Err(); merr != nil {
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"memo: cache appends failing, this run's results are not being cached: %v", merr))
		}
	}
	if jerr := st.rj.takeError(); jerr != nil {
		res.Warnings = append(res.Warnings, fmt.Sprintf("journal: appends failing, run no longer durable: %v", jerr))
	}
	res.Health = st.health.report()
	return res, err
}

// stageHeader stages the workflow's external inputs (unless disabled)
// and records the synthetic header task. The manifest comes off the
// invocation plan, resolved once at prepare time — not rescanned from
// the workflow inside the execution wall.
func (m *Manager) stageHeader(p *invocationPlan, res *Result, start time.Time) error {
	header := &TaskResult{Name: HeaderName, Category: "header", Phase: 0}
	if !m.opts.SkipStageInputs {
		stage := make(map[string]int64, len(p.ext))
		for _, f := range p.ext {
			stage[f.Name] = f.SizeInBytes
		}
		if err := sharedfs.Stage(m.opts.Drive, stage); err != nil {
			header.Err = err
			res.Tasks[HeaderName] = header
			return fmt.Errorf("wfm: staging inputs: %w", err)
		}
	}
	header.End = time.Since(start)
	res.Tasks[HeaderName] = header
	res.Phases = append(res.Phases, []string{HeaderName})
	return nil
}

// levelPhases renders the CSR's topological levels as name lists. IDs
// are interned in sorted-name order, so the ascending-ID level slices
// are already lexicographically sorted — identical to the Phases()
// output the phase report used before the index-based hot path.
func levelPhases(c *dag.CSR) [][]string {
	slices := c.LevelSlices()
	out := make([][]string, len(slices))
	for i, ids := range slices {
		names := make([]string, len(ids))
		for j, id := range ids {
			names[j] = c.Name(id)
		}
		out[i] = names
	}
	return out
}

// traceReplay annotates the run's root span with journal context and,
// on resumed runs, emits a journal:replay child span carrying the
// recovery counts.
func (m *Manager) traceReplay(root *obs.Span, st *runState) {
	if root == nil {
		return
	}
	if st.rj != nil {
		root.SetAttr("journal", "on")
	}
	if st.rec != nil {
		s := m.opts.Tracer.StartChildOf(root, "journal:replay")
		s.SetInt("recorded_completed", st.rec.report.RecordedCompleted)
		s.SetInt("skipped_invocations", st.rec.report.SkippedInvocations)
		s.SetInt("reexecuted", st.rec.report.Reexecuted)
		s.Finish()
	}
}

// traceMemo annotates the root span with the memo probe's outcome so a
// memoized run's trace explains why most tasks have no spans.
func (m *Manager) traceMemo(root *obs.Span, st *runState) {
	if root == nil || st.memo == nil {
		return
	}
	root.SetAttr("memoize", "on")
	s := m.opts.Tracer.StartChildOf(root, "memo:probe")
	s.SetInt("memo_hits", len(st.memo.hitIDs))
	s.SetInt("memo_misses", st.memo.misses)
	s.SetInt("skipped_output_bytes", int(st.memo.skipped))
	s.Finish()
}

// startRunTrace opens the run's root span (nil when tracing is off or
// the run loses the sampling draw) and returns a finisher that, on any
// exit path, closes the root and drains the tracer's collector into
// the Result.
func (m *Manager) startRunTrace(workflow string, res *Result) (*obs.Span, func()) {
	root := m.opts.Tracer.StartRoot("workflow:"+workflow, obs.LayerWFM)
	root.SetAttr("scheduling", res.Scheduling.String())
	return root, func() {
		if root == nil {
			return
		}
		res.TraceID = root.Context().TraceID.String()
		root.Finish()
		res.Spans = m.opts.Tracer.Take()
	}
}

// finishTaskSpan annotates and closes one task's span: ready→start
// queueing latency, attempt count, and the terminal error if any.
func (m *Manager) finishTaskSpan(ts *obs.Span, tr *TaskResult) {
	if ts == nil {
		return
	}
	ts.SetAttr("category", tr.Category)
	ts.SetInt("phase", tr.Phase)
	ts.SetFloat("queue_ms", float64(tr.QueueWait().Microseconds())/1000)
	ts.SetInt("attempts", tr.Attempts)
	if tr.Err != nil {
		ts.SetAttr("error", tr.Err.Error())
	}
	ts.Finish()
}

// invoke runs one function through the run's attempt path (rs.post,
// composed once per run by newResilience) and owns what is per task, not
// per attempt: the deadline (Options.TaskTimeout) over all attempts and
// the retry loop with full-jitter exponential backoff honouring
// Retry-After hints. A returned retry or throttled attempt is a
// transition. It returns the response, the attempts made, and the
// terminal error if the task failed. Under a sampled parent each attempt
// emits a child span, whose context the transport injects as the POST's
// traceparent; a nil parent keeps the whole path span-free.
func (m *Manager) invoke(ctx context.Context, p *invocationPlan, id int32, rs *resilience, parent *obs.Span) (*wfbench.Response, int, error) {
	task := p.tasks[id]
	tctx := ctx
	if m.opts.TaskTimeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, m.scaled(m.opts.TaskTimeout))
		defer cancel()
	}
	for n := 0; ; n++ {
		as := m.opts.Tracer.StartChildOf(parent, "invoke")
		as.SetInt("attempt", n+1)
		as.SetAttr("endpoint", task.Command.APIURL)
		out := rs.post(tctx, attempt{p: p, id: id, n: n, span: as, task: parent})
		resp, err := out.resp, out.err
		if as != nil {
			if resp != nil && resp.ColdStart {
				as.SetAttr("cold_start", "true")
			}
			if err != nil {
				as.SetAttr("error", err.Error())
			}
			as.Finish()
		}
		attempts := n + 1
		if n > 0 {
			rs.st.emit(transition{kind: tRetry, id: id, n: attempts, shed: out.shed})
		}
		if err != nil && out.retryAfter > 0 {
			rs.st.emit(transition{kind: tThrottle, id: id, n: attempts, shed: out.shed, err: err})
		}
		if err == nil {
			return resp, attempts, nil
		}
		// A cancelled parent context always wins: return its error
		// promptly, even mid-backoff. The task's own expired deadline
		// is terminal too, but reported as ErrTaskTimeout so callers
		// can tell a wedged endpoint from a cancelled run.
		if cerr := ctx.Err(); cerr != nil {
			return resp, attempts, cerr
		}
		if tctx.Err() != nil {
			return resp, attempts, fmt.Errorf("wfm: %s: %w after %d attempt(s): %v",
				task.Name, ErrTaskTimeout, attempts, err)
		}
		if !out.retriable || n >= m.opts.Retries {
			return resp, attempts, err
		}
		if delay := m.retryDelay(n, out.retryAfter); delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-tctx.Done():
				t.Stop()
				if cerr := ctx.Err(); cerr != nil {
					return resp, attempts, cerr
				}
				return resp, attempts, fmt.Errorf("wfm: %s: %w during backoff after %d attempt(s): %v",
					task.Name, ErrTaskTimeout, attempts, err)
			case <-t.C:
			}
		}
	}
}

// invokeOnce is the single-task transport: one HTTP POST built around the
// plan's pre-rendered artifacts — the task's parsed URL, a pooled reader
// over its arena body — and a pooled decode buffer for the response. A
// sampled attempt span's context is injected as the request's traceparent
// header (on a fresh header map — the shared header is never mutated).
func (rs *resilience) invokeOnce(ctx context.Context, a attempt) outcome {
	task := a.p.tasks[a.id]
	req, body := a.p.request(ctx, a.id)
	if sc := a.span.Context(); sc.Sampled {
		h := make(http.Header, 2)
		h["Content-Type"] = sharedJSONHeader["Content-Type"]
		h["Traceparent"] = []string{sc.Traceparent()}
		req.Header = h
	}
	hres, err := rs.m.opts.Client.Do(req)
	body.done() // Do has returned: GetBody will not be asked for again
	if err != nil {
		return outcome{retriable: ctx.Err() == nil, err: fmt.Errorf("wfm: %s: request: %w", task.Name, err)}
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 1024))
		return statusFailure(task.Name, hres.StatusCode, ParseRetryAfter(hres.Header.Get("Retry-After")), msg)
	}
	buf := decodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(hres.Body)
	out := rs.decodeResponse(task.Name, buf.Bytes(), err, rs.responses.next())
	decodeBufs.Put(buf)
	return out
}

// decodeResponse turns a 200 answer's payload — an HTTP body or one
// batch frame — into the outcome; readErr is a failed read of it, if any.
// The Response is decoded into slot; its Name is the task's own string
// when the endpoint echoed it, as it does.
func (rs *resilience) decodeResponse(task string, payload []byte, readErr error, slot *wfbench.Response) outcome {
	if readErr == nil {
		readErr = wfbench.DecodeResponse(payload, slot, task, &rs.pods)
	}
	if readErr != nil {
		return outcome{err: fmt.Errorf("wfm: %s: decode: %w", task, readErr)}
	}
	if !slot.OK {
		return outcome{resp: slot, err: fmt.Errorf("wfm: %s: function error: %s", task, slot.Error)}
	}
	return outcome{resp: slot}
}

// statusFailure maps a non-200 answer — a whole HTTP response or one
// sub-task's frame of a batch response — onto an attempt outcome: 5xx
// and 429 are worth retrying, and the server's Retry-After hint counts
// only on the two statuses that define it (429, 503).
func statusFailure(task string, status int, hint time.Duration, msg []byte) outcome {
	out := outcome{
		retriable: status >= 500 || status == http.StatusTooManyRequests,
		err:       fmt.Errorf("wfm: %s: HTTP %d: %s", task, status, strings.TrimSpace(string(msg))),
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		out.retryAfter = hint
	}
	return out
}

// PhaseStats summarizes per-phase behaviour of a Result, used by the
// characterization tooling.
type PhaseStats struct {
	Phase     int
	Functions int
	// WallSpan is the wall time from the first start to the last end
	// in the phase.
	WallSpan time.Duration
}

// PhaseBreakdown derives per-phase stats from a Result (excluding the
// synthetic header/tail).
func PhaseBreakdown(res *Result) []PhaseStats {
	byPhase := make(map[int][]*TaskResult)
	maxPhase := 0
	for _, tr := range res.Tasks {
		if tr.Name == HeaderName || tr.Name == TailName {
			continue
		}
		byPhase[tr.Phase] = append(byPhase[tr.Phase], tr)
		if tr.Phase > maxPhase {
			maxPhase = tr.Phase
		}
	}
	var out []PhaseStats
	for p := 1; p <= maxPhase; p++ {
		trs := byPhase[p]
		if len(trs) == 0 {
			continue
		}
		first, last := trs[0].Start, trs[0].End
		for _, tr := range trs[1:] {
			if tr.Start < first {
				first = tr.Start
			}
			if tr.End > last {
				last = tr.End
			}
		}
		out = append(out, PhaseStats{Phase: p, Functions: len(trs), WallSpan: last - first})
	}
	return out
}
