// Package wfmd is the multi-run control plane: a long-lived workflow
// service that accepts workflow JSON submissions over HTTP and
// executes many concurrent runs — each its own wfm.Manager — against
// shared platform backends.
//
// The layering, bottom to top:
//
//	wfm.Manager   one run: scheduling, resilience, journal, memo
//	dispatcher    admission queue, per-tenant quotas, weighted
//	              fair-share task gate (admission.go)
//	Server        run registry, per-run data dirs, resume-on-restart,
//	              per-tenant metrics (this file)
//	HTTP layer    /v1/runs lifecycle + telemetry mux + request
//	              logging (http.go)
//
// Every accepted run owns a directory under <DataDir>/runs/<id>/
// holding the submitted workflow bytes, a meta record, the run's
// write-ahead journal, and — once terminal — a result record. The
// result file doubles as the terminal marker: on restart the server
// reloads terminal runs into the registry as history and re-admits
// everything else through Manager.Resume, which replays the journal
// and re-invokes only what is not recorded complete. A daemon crash
// therefore loses no accepted run and duplicates no completed task.
package wfmd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfserverless/internal/journal"
	"wfserverless/internal/metrics"
	"wfserverless/internal/obs"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// Config configures a Server.
type Config struct {
	// DataDir is the service state root. Required. Run state lives
	// under DataDir/runs/<id>/.
	DataDir string
	// Manager is the template for every run's wfm.Options. Drive is
	// required; Journal, Monitor, Gate and Logger are owned per-run by
	// the server and must be unset. Client defaults to one shared
	// pooled client so hundreds of runs reuse one transport.
	Manager wfm.Options
	// Tenants pre-registers tenant quota/weight configs. Tenants not
	// listed are admitted with DefaultTenant's class.
	Tenants []TenantConfig
	// DefaultTenant is the config class for unregistered tenants.
	DefaultTenant TenantConfig
	// QueueCapacity bounds admitted-but-not-yet-running runs across
	// all tenants; overflow is rejected with ErrQueueFull (429 on the
	// wire). Zero defaults to 256.
	QueueCapacity int
	// MaxActiveRuns bounds simultaneously executing runs across all
	// tenants. Zero defaults to 64.
	MaxActiveRuns int
	// TaskSlots is the global in-flight task invocation budget shared
	// by all runs through the fair-share gate. Zero defaults to 256.
	TaskSlots int
	// RetryAfter is the hint (seconds, possibly fractional) sent with
	// 429 responses. Zero defaults to 1.
	RetryAfter float64
	// TraceSample, when positive, gives every run a private tracer at
	// this sampling ratio; sampled runs leave a spans.jsonl in their
	// run directory.
	TraceSample float64
	// JournalSync is each run journal's fsync policy;
	// JournalGroupWindow is the group-commit batching window (zero
	// uses the journal package's default).
	JournalSync        journal.SyncPolicy
	JournalGroupWindow time.Duration
	// Logger receives service and per-run structured logs. Nil
	// discards them.
	Logger *slog.Logger
}

// Run lifecycle states as they appear on the wire.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// IsTerminal reports whether a run state is final.
func IsTerminal(state string) bool {
	return state == StateSucceeded || state == StateFailed || state == StateCancelled
}

// RunMeta is the durable submission record (meta.json).
type RunMeta struct {
	ID            string `json:"id"`
	Tenant        string `json:"tenant"`
	Priority      string `json:"priority"`
	Workflow      string `json:"workflow"`
	Tasks         int    `json:"tasks"`
	SubmittedUnix int64  `json:"submitted_unix"`
}

// RunStatus is the live lifecycle view served by GET /v1/runs/{id}:
// registry state plus the run's Monitor snapshot.
type RunStatus struct {
	ID            string `json:"id"`
	Tenant        string `json:"tenant"`
	Priority      string `json:"priority"`
	Workflow      string `json:"workflow"`
	State         string `json:"state"`
	Tasks         int    `json:"tasks"`
	Running       int64  `json:"running"`
	Done          int64  `json:"done"`
	Failed        int64  `json:"failed"`
	Retries       int64  `json:"retries"`
	MemoHits      int64  `json:"memo_hits,omitempty"`
	Resumed       bool   `json:"resumed,omitempty"`
	SubmittedUnix int64  `json:"submitted_unix"`
	EndedUnix     int64  `json:"ended_unix,omitempty"`
	Error         string `json:"error,omitempty"`
}

// RunResult is the durable terminal record (result.json), served by
// GET /v1/runs/{id}/result.
type RunResult struct {
	ID            string   `json:"id"`
	Tenant        string   `json:"tenant"`
	Priority      string   `json:"priority"`
	Workflow      string   `json:"workflow"`
	State         string   `json:"state"`
	Tasks         int      `json:"tasks"`
	Completed     int      `json:"completed"`
	FailedTasks   []string `json:"failed_tasks,omitempty"`
	Recovered     int      `json:"recovered,omitempty"`
	Memoized      int      `json:"memoized,omitempty"`
	Retries       int64    `json:"retries,omitempty"`
	MakespanS     float64  `json:"makespan_s"`
	WallS         float64  `json:"wall_s"`
	Resumed       bool     `json:"resumed,omitempty"`
	Error         string   `json:"error,omitempty"`
	SubmittedUnix int64    `json:"submitted_unix"`
	EndedUnix     int64    `json:"ended_unix"`
}

// run is one registered workflow run.
type run struct {
	id       string
	tenant   string
	priority Priority
	dir      string
	// compiled is the admission check's result, which the run executes
	// on. A run re-admitted after a restart holds the workflow as loaded
	// instead, and compiles it when it executes.
	compiled *wfm.Compiled
	w        *wfformat.Workflow
	tasks    int
	meta     RunMeta
	resumed  bool

	mu        sync.Mutex
	state     string
	cancelReq bool
	cancel    context.CancelFunc
	mon       *wfm.Monitor
	result    *RunResult
	endedUnix int64
	errMsg    string
}

func (r *run) setState(s string) {
	r.mu.Lock()
	r.state = s
	r.mu.Unlock()
}

// Server is the workflow service.
type Server struct {
	cfg  Config
	disp *dispatcher
	log  *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc
	stopping   atomic.Bool // graceful: journals closed clean, runs resumable
	aborting   atomic.Bool // crash simulation: journals aborted mid-write

	mu        sync.Mutex
	runs      map[string]*run
	order     []string
	seq       int
	closed    bool
	completed map[string]map[string]int64 // tenant → state → count
	wg        sync.WaitGroup
}

// New builds a Server over cfg.DataDir, creating the directory tree if
// needed and re-admitting every non-terminal run found there (the
// resume-on-restart path). The returned server is already accepting
// work; wire Handler into an http.Server to expose it.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("wfmd: Config needs a DataDir")
	}
	if cfg.Manager.Drive == nil {
		return nil, errors.New("wfmd: Config.Manager needs a Drive")
	}
	if cfg.Manager.Journal != nil || cfg.Manager.Monitor != nil || cfg.Manager.Gate != nil || cfg.Manager.Tracer != nil {
		return nil, errors.New("wfmd: Config.Manager Journal/Monitor/Gate/Tracer are owned per-run by the server (use TraceSample)")
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 256
	}
	if cfg.MaxActiveRuns <= 0 {
		cfg.MaxActiveRuns = 64
	}
	if cfg.TaskSlots <= 0 {
		cfg.TaskSlots = 256
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Manager.Client == nil {
		// One pooled transport for every run the service will ever
		// execute; without this each wfm.New builds its own.
		cfg.Manager.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if err := os.MkdirAll(runsDir(cfg.DataDir), 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		disp:       newDispatcher(cfg),
		log:        cfg.Logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		runs:       make(map[string]*run),
		completed:  make(map[string]map[string]int64),
	}
	s.disp.launch = func(r *run) {
		s.wg.Add(1)
		go s.execute(r)
	}
	if err := s.scanRuns(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

func runsDir(dataDir string) string { return filepath.Join(dataDir, "runs") }

// scanRuns reloads registry state from disk at startup: terminal runs
// become history, incomplete runs are force-admitted for Resume.
func (s *Server) scanRuns() error {
	entries, err := os.ReadDir(runsDir(s.cfg.DataDir))
	if err != nil {
		return err
	}
	var resume []*run
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(runsDir(s.cfg.DataDir), e.Name())
		meta, result, err := LoadRun(dir)
		if err != nil {
			s.log.Warn("skipping unreadable run dir", "dir", dir, "err", err)
			continue
		}
		if n, ok := parseRunID(meta.ID); ok && n > s.seq {
			s.seq = n
		}
		prio, _ := ParsePriority(meta.Priority)
		r := &run{
			id: meta.ID, tenant: meta.Tenant, priority: prio,
			dir: dir, tasks: meta.Tasks, meta: *meta,
		}
		if result != nil {
			r.state = result.State
			r.result = result
			r.endedUnix = result.EndedUnix
			r.errMsg = result.Error
			s.register(r)
			continue
		}
		w, err := wfformat.Load(filepath.Join(dir, "workflow.json"))
		if err != nil {
			s.log.Warn("skipping run with unreadable workflow", "dir", dir, "err", err)
			continue
		}
		r.w = w
		r.state = StateQueued
		r.resumed = true
		s.register(r)
		resume = append(resume, r)
	}
	for _, r := range resume {
		s.log.Info("re-admitting incomplete run", "run", r.id, "tenant", r.tenant)
		s.disp.forceEnqueue(r)
	}
	return nil
}

func parseRunID(id string) (int, bool) {
	const prefix = "r-"
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimLeft(id[len(prefix):], "0"))
	if err != nil {
		if id[len(prefix):] == strings.Repeat("0", len(id)-len(prefix)) {
			return 0, true
		}
		return 0, false
	}
	return n, true
}

func (s *Server) register(r *run) {
	s.mu.Lock()
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.mu.Unlock()
}

// Submit validates and admits one workflow, persisting its run dir
// before queueing. body is the workflow JSON exactly as posted; it is
// stored verbatim so a restart reloads a byte-identical (and therefore
// fingerprint-identical, journal-resumable) workflow.
func (s *Server) Submit(tenant, priority string, body []byte) (*RunStatus, error) {
	if tenant == "" {
		tenant = "default"
	}
	prio, err := ParsePriority(priority)
	if err != nil {
		return nil, err
	}
	w, err := wfformat.Parse(body)
	if err != nil {
		return nil, fmt.Errorf("wfmd: bad workflow: %w", err)
	}
	// The manager's own admission test, so a 202 here is never followed
	// by "not runnable" when the run starts — and the run's own compile:
	// it executes on this value.
	compiled, err := wfm.CompileRunnable(w)
	if err != nil {
		return nil, fmt.Errorf("wfmd: bad workflow: %w", err)
	}
	tasks := compiled.Len()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("wfmd: server is shutting down")
	}
	s.seq++
	id := fmt.Sprintf("r-%06d", s.seq)
	s.mu.Unlock()

	if err := s.disp.reserve(tenant); err != nil {
		return nil, err
	}
	dir := filepath.Join(runsDir(s.cfg.DataDir), id)
	meta := RunMeta{
		ID: id, Tenant: tenant, Priority: prio.String(),
		Workflow: w.Name, Tasks: tasks, SubmittedUnix: time.Now().Unix(),
	}
	if err := persistSubmission(dir, body, meta); err != nil {
		s.disp.unreserve(tenant)
		os.RemoveAll(dir)
		return nil, err
	}
	r := &run{
		id: id, tenant: tenant, priority: prio, dir: dir,
		compiled: compiled, tasks: tasks, meta: meta, state: StateQueued,
	}
	s.register(r)
	s.log.Info("run accepted", "run", id, "tenant", tenant,
		"priority", prio.String(), "workflow", w.Name, "tasks", tasks)
	s.disp.enqueue(r)
	return s.status(r), nil
}

func persistSubmission(dir string, body []byte, meta RunMeta) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "workflow.json"), body, 0o644); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "meta.json"), meta)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// execute runs one admitted run to completion on its own Manager.
func (s *Server) execute(r *run) {
	defer s.wg.Done()
	defer s.disp.runDone(r.tenant)

	r.mu.Lock()
	if r.cancelReq {
		r.mu.Unlock()
		s.finish(r, StateCancelled, nil, context.Canceled, time.Time{})
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	mon := wfm.NewMonitor()
	r.state = StateRunning
	r.cancel = cancel
	r.mon = mon
	r.mu.Unlock()
	defer cancel()

	j, err := journal.Open(filepath.Join(r.dir, "journal"), journal.Options{
		Sync:        s.cfg.JournalSync,
		GroupWindow: s.cfg.JournalGroupWindow,
	})
	if err != nil {
		s.finish(r, StateFailed, nil, err, time.Time{})
		return
	}
	opts := s.cfg.Manager
	opts.Journal = j
	opts.Monitor = mon
	opts.Gate = s.disp.gate(r.tenant, r.priority)
	opts.Logger = s.log.With("run", r.id, "tenant", r.tenant)
	if s.cfg.TraceSample > 0 {
		// Each run gets a private tracer so its span file holds only
		// its own trace.
		opts.Tracer = obs.NewTracer(obs.Options{SampleRatio: s.cfg.TraceSample})
	}
	mgr, err := wfm.New(opts)
	if err != nil {
		j.Close()
		s.finish(r, StateFailed, nil, err, time.Time{})
		return
	}
	compiled := r.compiled
	if compiled == nil {
		// Re-admitted after a restart: the scan loaded the workflow only.
		if compiled, err = wfm.CompileRunnable(r.w); err != nil {
			j.Close()
			s.finish(r, StateFailed, nil, err, time.Time{})
			return
		}
	}
	started := time.Now()
	// Resume covers both lives of a run: on an empty journal it
	// degenerates to a fresh Run, on a non-empty one it replays.
	res, runErr := mgr.ResumeCompiled(ctx, compiled)

	if s.aborting.Load() {
		// Simulated daemon crash: drop the journal's unsynced tail and
		// leave no terminal marker, exactly like SIGKILL would.
		j.Abort()
		return
	}
	j.Close()
	if runErr != nil && ctx.Err() != nil && !r.cancelRequested() && s.stopping.Load() {
		// Graceful shutdown interrupted the run: journal is closed
		// clean and no result is written, so the next life resumes it.
		s.log.Info("run interrupted for shutdown", "run", r.id)
		return
	}
	state := StateSucceeded
	if runErr != nil {
		state = StateFailed
		if r.cancelRequested() || errors.Is(runErr, context.Canceled) {
			state = StateCancelled
		}
	}
	if tr := wfm.TraceOf(res); tr != nil && len(tr.Spans) > 0 {
		if f, err := os.Create(filepath.Join(r.dir, "spans.jsonl")); err == nil {
			tr.WriteSpanLog(f)
			f.Close()
		}
	}
	s.finish(r, state, res, runErr, started)
}

func (r *run) cancelRequested() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cancelReq
}

// finish moves a run to a terminal state and persists result.json —
// the durable marker that stops a restart from re-admitting it.
func (s *Server) finish(r *run, state string, res *wfm.Result, runErr error, started time.Time) {
	now := time.Now()
	rr := &RunResult{
		ID: r.id, Tenant: r.tenant, Priority: r.priority.String(),
		Workflow: r.meta.Workflow, State: state, Tasks: r.tasks,
		Resumed:       r.resumed,
		SubmittedUnix: r.meta.SubmittedUnix,
		EndedUnix:     now.Unix(),
	}
	if !started.IsZero() {
		rr.WallS = now.Sub(started).Seconds()
	}
	if runErr != nil {
		rr.Error = runErr.Error()
	}
	if res != nil {
		rr.MakespanS = res.Makespan
		rr.WallS = res.Wall.Seconds()
		rr.FailedTasks = res.Failed
		for _, tr := range res.Tasks {
			if tr.Name == wfm.HeaderName || tr.Name == wfm.TailName {
				continue // synthetic framing entries, not workflow tasks
			}
			if tr.Err == nil {
				rr.Completed++
			}
			if tr.Recovered {
				rr.Recovered++
			}
			if tr.Memoized {
				rr.Memoized++
			}
		}
	}
	rr.Retries = r.mon.Snapshot().Retries // zero without a monitor
	if err := writeJSON(filepath.Join(r.dir, "result.json"), rr); err != nil {
		s.log.Error("persisting run result failed", "run", r.id, "err", err)
	}
	r.mu.Lock()
	r.state = state
	r.result = rr
	r.endedUnix = rr.EndedUnix
	if runErr != nil {
		r.errMsg = runErr.Error()
	}
	// result.json is the durable copy from here on: a finished run keeps
	// no more in the registry than one rescanned after a restart.
	r.compiled, r.w, r.mon, r.cancel = nil, nil, nil, nil
	r.mu.Unlock()
	s.mu.Lock()
	byState := s.completed[r.tenant]
	if byState == nil {
		byState = make(map[string]int64)
		s.completed[r.tenant] = byState
	}
	byState[state]++
	s.mu.Unlock()
	s.log.Info("run finished", "run", r.id, "tenant", r.tenant,
		"state", state, "completed", rr.Completed, "recovered", rr.Recovered,
		"wall_s", fmt.Sprintf("%.3f", rr.WallS))
}

// Cancel requests cancellation of a run. Queued runs finish as
// cancelled when they reach the front; running runs have their context
// cancelled. Terminal runs are left alone.
func (s *Server) Cancel(id string) (*RunStatus, error) {
	r := s.lookup(id)
	if r == nil {
		return nil, ErrNotFound
	}
	r.mu.Lock()
	r.cancelReq = true
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return s.status(r), nil
}

// ErrNotFound marks an unknown run ID.
var ErrNotFound = errors.New("wfmd: no such run")

func (s *Server) lookup(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// Status returns one run's live status.
func (s *Server) Status(id string) (*RunStatus, error) {
	r := s.lookup(id)
	if r == nil {
		return nil, ErrNotFound
	}
	return s.status(r), nil
}

func (s *Server) status(r *run) *RunStatus {
	r.mu.Lock()
	st := &RunStatus{
		ID: r.id, Tenant: r.tenant, Priority: r.priority.String(),
		Workflow: r.meta.Workflow, State: r.state, Tasks: r.tasks,
		Resumed:       r.resumed,
		SubmittedUnix: r.meta.SubmittedUnix,
		EndedUnix:     r.endedUnix,
		Error:         r.errMsg,
	}
	mon := r.mon
	result := r.result
	r.mu.Unlock()
	snap := mon.Snapshot() // zero before the run executes
	st.Running = snap.Running
	st.Done = snap.Done
	st.Failed = snap.Failed
	st.Retries = snap.Retries
	st.MemoHits = snap.MemoHits
	if result != nil {
		// Terminal: result.json alone, the same before and after a restart.
		st.Done = int64(result.Completed)
		st.Failed = int64(len(result.FailedTasks))
		st.Retries = result.Retries
		st.MemoHits = int64(result.Memoized)
		st.Resumed = result.Resumed
	}
	return st
}

// List returns every registered run's status in submission order,
// optionally filtered by tenant.
func (s *Server) List(tenant string) []*RunStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]*RunStatus, 0, len(ids))
	for _, id := range ids {
		r := s.lookup(id)
		if r == nil || (tenant != "" && r.tenant != tenant) {
			continue
		}
		out = append(out, s.status(r))
	}
	return out
}

// Result returns a terminal run's durable result, or ErrNotTerminal.
func (s *Server) Result(id string) (*RunResult, error) {
	r := s.lookup(id)
	if r == nil {
		return nil, ErrNotFound
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.result == nil {
		return nil, ErrNotTerminal
	}
	return r.result, nil
}

// ErrNotTerminal marks a result request for a run still in flight.
var ErrNotTerminal = errors.New("wfmd: run not terminal yet")

// TenantStats exposes the admission plane's per-tenant counters.
func (s *Server) TenantStats() []TenantStats { return s.disp.stats() }

// QueueDepth is the current admitted-but-not-running run count.
func (s *Server) QueueDepth() int { return s.disp.queueDepth() }

// Stop shuts the server down gracefully: no new submissions, every
// running Manager's context is cancelled, journals close clean, and no
// terminal marker is written for interrupted runs — so a later New on
// the same DataDir resumes them. Blocks until all executors return.
func (s *Server) Stop() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopping.Store(true)
	s.baseCancel()
	s.wg.Wait()
}

// Abort simulates a daemon crash for recovery harnesses: like Stop but
// run journals drop their unsynced tails (journal.Abort) instead of
// closing cleanly, and interrupted runs look exactly as a SIGKILL
// would leave them.
func (s *Server) Abort() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.aborting.Store(true)
	s.stopping.Store(true)
	s.baseCancel()
	s.wg.Wait()
}

// WriteMetrics writes the service's per-tenant metric families in
// Prometheus text exposition format; obs.TelemetryMux negotiates the
// OpenMetrics variant on top.
func (s *Server) WriteMetrics(w io.Writer) error {
	stats := s.TenantStats()
	s.mu.Lock()
	completed := make(map[string]map[string]int64, len(s.completed))
	for tenant, byState := range s.completed {
		completed[tenant] = maps.Clone(byState)
	}
	s.mu.Unlock()

	x := metrics.NewWriter(w)
	x.Single("wfmd_queue_depth", "gauge", "Admitted runs waiting to start.", s.QueueDepth())
	writes := []struct {
		name, help, typ string
		value           func(TenantStats) int64
	}{
		{"wfmd_runs_accepted_total", "Runs admitted per tenant.", "counter", func(t TenantStats) int64 { return t.RunsAccepted }},
		{"wfmd_runs_rejected_total", "Runs rejected with backpressure per tenant.", "counter", func(t TenantStats) int64 { return t.RunsRejected }},
		{"wfmd_runs_queued", "Admitted runs waiting to start per tenant.", "gauge", func(t TenantStats) int64 { return int64(t.RunsQueued) }},
		{"wfmd_runs_running", "Currently executing runs per tenant.", "gauge", func(t TenantStats) int64 { return int64(t.RunsRunning) }},
		{"wfmd_run_concurrency_highwater", "Maximum simultaneously executing runs observed per tenant.", "gauge", func(t TenantStats) int64 { return int64(t.RunHighwater) }},
		{"wfmd_tasks_inflight", "Task invocations currently holding a slot per tenant.", "gauge", func(t TenantStats) int64 { return int64(t.TasksInflight) }},
		{"wfmd_tasks_dispatched_total", "Task-slot grants per tenant.", "counter", func(t TenantStats) int64 { return t.TasksDispatched }},
		{"wfmd_tasks_contested_total", "Task-slot grants made under cross-tenant contention per tenant.", "counter", func(t TenantStats) int64 { return t.ContestedGrants }},
	}
	for _, m := range writes {
		x.Family(m.name, m.typ, m.help)
		for _, t := range stats {
			x.Sample(m.name, m.value(t), "tenant", t.Tenant)
		}
	}
	x.Family("wfmd_runs_completed_total", "counter", "Terminal runs per tenant and state.")
	tenants := make([]string, 0, len(completed))
	for tenant := range completed {
		tenants = append(tenants, tenant)
	}
	sort.Strings(tenants)
	for _, tenant := range tenants {
		states := make([]string, 0, len(completed[tenant]))
		for st := range completed[tenant] {
			states = append(states, st)
		}
		sort.Strings(states)
		for _, st := range states {
			x.Sample("wfmd_runs_completed_total", completed[tenant][st], "tenant", tenant, "state", st)
		}
	}
	return x.Err()
}

// LoadRun reads a run directory's durable records: meta.json always,
// result.json when the run reached a terminal state (nil otherwise).
// Shared by the restart scan and by analyze's data-dir summary.
func LoadRun(dir string) (*RunMeta, *RunResult, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, nil, err
	}
	var meta RunMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, nil, fmt.Errorf("wfmd: %s: bad meta.json: %w", dir, err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return &meta, nil, nil
		}
		return nil, nil, err
	}
	var result RunResult
	if err := json.Unmarshal(data, &result); err != nil {
		return nil, nil, fmt.Errorf("wfmd: %s: bad result.json: %w", dir, err)
	}
	return &meta, &result, nil
}

// RunsRoot resolves path to the directory whose children are run
// dirs: path itself if its entries carry meta.json, path/runs if that
// exists, "" when neither looks like wfmd state.
func RunsRoot(path string) string {
	if fi, err := os.Stat(filepath.Join(path, "runs")); err == nil && fi.IsDir() {
		return filepath.Join(path, "runs")
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return ""
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(path, e.Name(), "meta.json")); err == nil {
			return path
		}
	}
	return ""
}
