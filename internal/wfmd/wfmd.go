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
//	Server        run registry, service log, resume-on-restart,
//	              per-tenant metrics (this file, log.go)
//	HTTP layer    /v1/runs lifecycle + telemetry mux + request
//	              logging (http.go)
//
// Every accepted run lives in the service log (log.go), one write-ahead
// log per daemon life under <DataDir>/log/: the run's submission, its
// wfm journal records tagged with the run, and — once terminal — its
// result, which doubles as the terminal marker. On restart the server
// folds the earlier lives' logs, keeps terminal runs' results as
// history and re-admits everything else through Manager.ResumeCompiled
// on a view of its records, which re-invokes only what is not recorded
// complete. A daemon crash therefore loses no accepted run and
// duplicates no completed task.
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
	// DataDir is the service state root. Required. The service log
	// lives under DataDir/log/, sampled runs' spans under DataDir/spans/.
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
	// this sampling ratio; a sampled run leaves DataDir/spans/<id>.jsonl.
	TraceSample float64
	// JournalSync is the service log's fsync policy;
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

// RunMeta is the durable submission record, the head of a run's submit
// record in the service log.
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

// RunResult is the durable terminal record, a run's end record in the
// service log, served by GET /v1/runs/{id}/result.
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

// run is one queued or running workflow run. A finished run leaves
// the registry, and the terminal index keeps its result alone.
type run struct {
	id       string
	seq      int
	tenant   string
	priority Priority
	// compiled is the admission check's result, which the run executes
	// on. A run re-admitted after a restart holds the workflow as
	// logged instead, and what earlier lives logged for it (recs, torn),
	// and compiles it when it executes.
	compiled *wfm.Compiled
	w        *wfformat.Workflow
	recs     []journal.Record
	torn     bool
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

// Server is the workflow service.
type Server struct {
	cfg  Config
	disp *dispatcher
	log  *slog.Logger
	wal  *journal.Journal // this life's service log

	baseCtx    context.Context
	baseCancel context.CancelFunc
	stopping   atomic.Bool // graceful: the log closed clean, runs resumable
	aborting   atomic.Bool // crash simulation: the log aborted mid-write

	mu        sync.Mutex
	runs      map[string]*run       // queued and running
	done      map[string]*RunResult // terminal
	order     []string
	seq       int
	closed    bool
	completed map[string]map[string]int64 // tenant → state → count
	wg        sync.WaitGroup
}

// New builds a Server over cfg.DataDir: it folds the earlier lives'
// service logs, opens this life's, folds in a data dir written with a
// directory per run, and re-admits every non-terminal run (the
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
	f := &fold{runs: make(map[int]*RunRecord)}
	life, err := foldLog(cfg.DataDir, f)
	if err != nil {
		return nil, err
	}
	wal, err := journal.Open(filepath.Join(cfg.DataDir, "log", fmt.Sprintf("%06d", life+1)), journal.Options{
		Sync:        cfg.JournalSync,
		GroupWindow: cfg.JournalGroupWindow,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		disp:       newDispatcher(cfg),
		log:        cfg.Logger,
		wal:        wal,
		baseCtx:    ctx,
		baseCancel: cancel,
		runs:       make(map[string]*run),
		done:       make(map[string]*RunResult),
		completed:  make(map[string]map[string]int64),
	}
	s.disp.launch = func(r *run) {
		s.wg.Add(1)
		go s.execute(r)
	}
	if err := s.migrate(f); err != nil {
		cancel()
		wal.Close()
		return nil, err
	}
	s.readmit(f)
	return s, nil
}

// readmit registers what the log holds: a terminal run's result goes to
// the terminal index, and every other run is force-admitted to resume.
func (s *Server) readmit(f *fold) {
	s.seq = f.maxSeq
	var resume []*run
	for _, lr := range f.sorted() {
		if lr.Result != nil {
			s.done[lr.Meta.ID] = lr.Result
			s.order = append(s.order, lr.Meta.ID)
			continue
		}
		prio, _ := ParsePriority(lr.Meta.Priority)
		r := &run{
			id: lr.Meta.ID, seq: lr.seq, tenant: lr.Meta.Tenant, priority: prio,
			recs: lr.Records, torn: lr.Torn, tasks: lr.Meta.Tasks, meta: lr.Meta,
			resumed: true, state: StateQueued,
		}
		s.register(r)
		var err error
		if r.w, err = wfformat.Parse(lr.Workflow); err != nil {
			s.finish(r, StateFailed, nil, fmt.Errorf("wfmd: bad workflow: %w", err), time.Time{})
			continue
		}
		resume = append(resume, r)
	}
	for _, r := range resume {
		s.log.Info("re-admitting incomplete run", "run", r.id, "tenant", r.tenant)
		s.disp.forceEnqueue(r)
	}
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

// Submit validates and admits one workflow, logging its submission
// before queueing. body is the workflow JSON exactly as posted; it is
// logged verbatim so a restart reloads a byte-identical (and therefore
// fingerprint-identical, journal-resumable) workflow. Submit keeps no
// reference to body.
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
	seq := s.seq
	s.mu.Unlock()
	id := runID(seq)

	if err := s.disp.reserve(tenant); err != nil {
		return nil, err
	}
	meta := RunMeta{
		ID: id, Tenant: tenant, Priority: prio.String(),
		Workflow: w.Name, Tasks: tasks, SubmittedUnix: time.Now().Unix(),
	}
	if err := s.logSubmit(seq, meta, body); err != nil {
		s.disp.unreserve(tenant)
		return nil, err
	}
	r := &run{
		id: id, seq: seq, tenant: tenant, priority: prio,
		compiled: compiled, tasks: tasks, meta: meta, state: StateQueued,
	}
	s.register(r)
	s.log.Info("run accepted", "run", id, "tenant", tenant,
		"priority", prio.String(), "workflow", w.Name, "tasks", tasks)
	s.disp.enqueue(r)
	return s.status(r), nil
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

	opts := s.cfg.Manager
	opts.Journal = &runLog{wal: s.wal, seq: uint64(r.seq), recs: r.recs, torn: r.torn}
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
		s.finish(r, StateFailed, nil, err, time.Time{})
		return
	}
	compiled := r.compiled
	if compiled == nil {
		// Re-admitted after a restart: the fold parsed the workflow only.
		if compiled, err = wfm.CompileRunnable(r.w); err != nil {
			s.finish(r, StateFailed, nil, err, time.Time{})
			return
		}
	}
	started := time.Now()
	// Resume covers both lives of a run: on an empty view it
	// degenerates to a fresh Run, on a non-empty one it replays.
	res, runErr := mgr.ResumeCompiled(ctx, compiled)

	if s.aborting.Load() {
		// Simulated daemon crash: Abort dropped the log's unsynced tail
		// before cancelling the run, and no end record follows, exactly
		// like SIGKILL.
		return
	}
	if runErr != nil && ctx.Err() != nil && !r.cancelRequested() && s.stopping.Load() {
		// Graceful shutdown interrupted the run: no end record is
		// written, so the next life resumes it.
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
	if res != nil && len(res.Spans) > 0 {
		// Only a sampled run writes a file of its own.
		dir := filepath.Join(s.cfg.DataDir, "spans")
		if os.MkdirAll(dir, 0o755) == nil {
			if f, err := os.Create(filepath.Join(dir, r.id+".jsonl")); err == nil {
				obs.WriteJSONL(f, obs.RecordsOf(res.Spans))
				f.Close()
			}
		}
	}
	s.finish(r, state, res, runErr, started)
}

func (r *run) cancelRequested() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cancelReq
}

// finish moves a run to a terminal state. Its end record, the durable
// marker that stops a restart from re-admitting it, is synced before
// the run reads terminal; from then on the registry keeps its result
// alone.
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
	data, err := json.Marshal(rr)
	if err == nil {
		err = s.wal.Append(kindEnd, tagged(r.seq, data))
	}
	if err == nil {
		err = s.wal.Sync()
	}
	if err != nil {
		s.log.Error("persisting run result failed", "run", r.id, "err", err)
	}
	r.mu.Lock()
	r.state = state
	r.result = rr
	r.endedUnix = rr.EndedUnix
	if runErr != nil {
		r.errMsg = runErr.Error()
	}
	r.mu.Unlock()
	s.mu.Lock()
	delete(s.runs, r.id)
	s.done[r.id] = rr
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

// lookup returns a queued or running run, or a finished run's view
// built from its result alone, the same before and after a restart.
func (s *Server) lookup(id string) *run {
	s.mu.Lock()
	r, rr := s.runs[id], s.done[id]
	s.mu.Unlock()
	if r != nil || rr == nil {
		return r
	}
	prio, _ := ParsePriority(rr.Priority)
	return &run{
		id: id, tenant: rr.Tenant, priority: prio, tasks: rr.Tasks, resumed: rr.Resumed,
		meta:  RunMeta{Workflow: rr.Workflow, SubmittedUnix: rr.SubmittedUnix},
		state: rr.State, result: rr, endedUnix: rr.EndedUnix, errMsg: rr.Error,
	}
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
		// Terminal: the result alone, the same before and after a restart.
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
// running Manager's context is cancelled, no end record is written for
// interrupted runs, and the log closes clean — so a later New on the
// same DataDir resumes them. Blocks until all executors return.
func (s *Server) Stop() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopping.Store(true)
	s.baseCancel()
	s.wg.Wait()
	if err := s.wal.Close(); err != nil {
		s.log.Error("closing the service log failed", "err", err)
	}
}

// Abort simulates a daemon crash for recovery harnesses: like Stop, but
// the log is aborted before any run is cancelled, so its unsynced tail
// is dropped (journal.Abort) and interrupted runs look exactly as a
// SIGKILL would leave them.
func (s *Server) Abort() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.aborting.Store(true)
	s.stopping.Store(true)
	s.wal.Abort()
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
