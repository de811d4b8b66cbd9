package experiments

// This file implements the service campaign: the multi-run control
// plane's acceptance experiment. Three phases exercise wfmd end to
// end over its real HTTP surface (an httptest listener in front of
// Server.Handler, driven through wfmd.Client):
//
//  1. Fairness and quotas. Two saturating tenants with 3:1 weights
//     submit identical batches of runs. Gates: neither tenant's
//     simultaneously running runs ever exceed its quota, and the
//     contested task-grant ratio lands within 15% of the configured
//     weights — weights only bind under contention, so the ratio is
//     measured over grants made while both tenants had waiting work.
//
//  2. Backpressure. A deliberately tiny admission queue is flooded.
//     Gates: overflow is rejected with 429 plus a parseable
//     Retry-After, and a client that honours the hint (wfmd.Client's
//     backoff loop) eventually lands every submission.
//
//  3. Crash recovery. The daemon is killed (Server.Abort — journals
//     lose their unsynced tails exactly as SIGKILL would lose them)
//     mid-flight with runs from two tenants in the air, then
//     restarted on the same data dir. Gates: every incomplete run is
//     re-admitted and driven to success, and no task any run's
//     journal recorded as completed is ever invoked again, verified
//     against per-task execution counts from the stub that survives
//     both daemon lives.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"wfserverless/internal/journal"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
	"wfserverless/internal/wfmd"
)

// ServiceConfig parameterizes the service campaign.
type ServiceConfig struct {
	// RunsPerTenant is how many runs each tenant submits in the
	// fairness phase (default 6).
	RunsPerTenant int
	// TasksPerRun is each synthetic workflow's size (default 64).
	TasksPerRun int
	// HeavyWeight/LightWeight are the two tenants' fair-share weights
	// (defaults 3 and 1) — the ratio is the fairness gate's target.
	HeavyWeight float64
	LightWeight float64
	// RunQuota is each tenant's MaxConcurrentRuns (default 2).
	RunQuota int
	// TaskSlots is the global in-flight invocation budget (default 4,
	// small so cross-tenant contention is constant).
	TaskSlots int
	// StubDelay is the stub endpoint's per-invocation latency
	// (default 2ms), the knob that keeps the task gate saturated.
	StubDelay time.Duration
	// TimeScale compresses the managers' nominal seconds (default 0.001).
	TimeScale float64
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.RunsPerTenant == 0 {
		c.RunsPerTenant = 6
	}
	if c.TasksPerRun == 0 {
		c.TasksPerRun = 64
	}
	if c.HeavyWeight == 0 {
		c.HeavyWeight = 3
	}
	if c.LightWeight == 0 {
		c.LightWeight = 1
	}
	if c.RunQuota == 0 {
		c.RunQuota = 2
	}
	if c.TaskSlots == 0 {
		c.TaskSlots = 4
	}
	if c.StubDelay == 0 {
		c.StubDelay = 2 * time.Millisecond
	}
	if c.TimeScale == 0 {
		c.TimeScale = 0.001
	}
	return c
}

// ServiceReport is the campaign's measured outcome; the Gate* fields
// are the acceptance checks the suite fails on.
type ServiceReport struct {
	// Fairness phase.
	HeavyRuns, LightRuns           int
	HeavyHighwater, LightHighwater int
	RunQuota                       int
	HeavyContested, LightContested int64
	ContestedRatio                 float64
	TargetRatio                    float64
	TaskHighwater                  int
	TaskSlots                      int

	// Backpressure phase.
	Submitted429  int
	RetryAfterHdr string
	DrainedRuns   int

	// Recovery phase.
	RecoveryRuns         int
	CrashCompleted       int
	ResumedRuns          int
	DuplicateInvocations int
	RecoveredSucceeded   int

	GateQuota        bool
	GateFairShare    bool
	GateBackpressure bool
	GateRecovery     bool
}

// Gates reports whether every acceptance gate held.
func (r ServiceReport) Gates() bool {
	return r.GateQuota && r.GateFairShare && r.GateBackpressure && r.GateRecovery
}

// serviceWorkflow builds a prefixed root + children fanout whose task
// and file names are namespaced per run, marshalled for submission.
func serviceWorkflow(prefix string, tasks int, url string) ([]byte, error) {
	w := wfformat.New(prefix)
	name := func(i int) string { return fmt.Sprintf("%s_t%04d", prefix, i) }
	out := func(i int) string { return fmt.Sprintf("%s_out%04d", prefix, i) }
	mk := func(i, parent int) *wfformat.Task {
		files := []wfformat.File{{Link: wfformat.LinkOutput, Name: out(i), SizeInBytes: 1}}
		var inputs []string
		if parent >= 0 {
			inputs = []string{out(parent)}
			files = append(files, wfformat.File{Link: wfformat.LinkInput, Name: out(parent), SizeInBytes: 1})
		}
		return &wfformat.Task{
			Name: name(i),
			Type: wfformat.TypeCompute,
			Command: wfformat.Command{
				Program: "wfbench",
				Arguments: []wfformat.Argument{{
					Name:   name(i),
					Out:    map[string]int64{out(i): 1},
					Inputs: inputs,
				}},
				APIURL: url,
			},
			Files:            files,
			RuntimeInSeconds: 0.001,
			Cores:            1,
			Category:         "svc",
		}
	}
	if err := w.AddTask(mk(0, -1)); err != nil {
		return nil, err
	}
	for i := 1; i < tasks; i++ {
		if err := w.AddTask(mk(i, 0)); err != nil {
			return nil, err
		}
		if err := w.Link(name(0), name(i)); err != nil {
			return nil, err
		}
	}
	return w.Marshal()
}

// serviceEnv is one phase's world: a shared drive, the counting stub,
// and a wfmd over a temp data dir, fronted by a real HTTP listener.
type serviceEnv struct {
	drive   sharedfs.Drive
	stub    *wfbench.Stub // counts executions across daemon lifetimes
	stubSrv *wfbench.Loopback
	dataDir string

	srv  *wfmd.Server
	http *httptest.Server
}

func newServiceEnv(cfg ServiceConfig) (*serviceEnv, error) {
	drive := sharedfs.NewMem()
	stub := wfbench.NewStub(drive, cfg.StubDelay)
	stubSrv, err := wfbench.ListenLoopback(wfbench.NewEndpoint(stub))
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp("", "wfmd-service-")
	if err != nil {
		stubSrv.Close()
		return nil, err
	}
	return &serviceEnv{drive: drive, stub: stub, stubSrv: stubSrv, dataDir: dataDir}, nil
}

// start boots a wfmd over the env's data dir — callable again after a
// stop or abort to model a daemon restart.
func (e *serviceEnv) start(cfg ServiceConfig, svc wfmd.Config) error {
	svc.DataDir = e.dataDir
	svc.Manager = wfm.Options{
		Drive:        e.drive,
		TimeScale:    cfg.TimeScale,
		MaxParallel:  64,
		Scheduling:   wfm.ScheduleDependency,
		InputWait:    5000,
		Retries:      2,
		RetryBackoff: 0.05,
	}
	svc.JournalSync = journal.SyncGroup
	srv, err := wfmd.New(svc)
	if err != nil {
		return err
	}
	e.srv = srv
	e.http = httptest.NewServer(srv.Handler())
	return nil
}

func (e *serviceEnv) stopHTTP() {
	if e.http != nil {
		e.http.Close()
		e.http = nil
	}
}

func (e *serviceEnv) Close() {
	e.stopHTTP()
	if e.srv != nil {
		e.srv.Stop()
	}
	e.stubSrv.Close()
	os.RemoveAll(e.dataDir)
}

func (e *serviceEnv) client(tenant string) *wfmd.Client {
	return &wfmd.Client{
		BaseURL: e.http.URL, Tenant: tenant,
		RetryBackoff: 0.02, RetryBackoffMax: 0.2, MaxRetries: 400,
	}
}

// Service runs the campaign's three phases and fills in the gates.
func Service(ctx context.Context, cfg ServiceConfig) (*ServiceReport, error) {
	cfg = cfg.withDefaults()
	rep := &ServiceReport{
		RunQuota:    cfg.RunQuota,
		TaskSlots:   cfg.TaskSlots,
		TargetRatio: cfg.HeavyWeight / cfg.LightWeight,
	}
	if err := serviceFairness(ctx, cfg, rep); err != nil {
		return rep, err
	}
	if err := serviceBackpressure(ctx, cfg, rep); err != nil {
		return rep, err
	}
	if err := serviceRecovery(ctx, cfg, rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// serviceFairness saturates the task gate with two weighted tenants
// and measures quota adherence and the contested-grant ratio.
func serviceFairness(ctx context.Context, cfg ServiceConfig, rep *ServiceReport) error {
	env, err := newServiceEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	if err := env.start(cfg, wfmd.Config{
		Tenants: []wfmd.TenantConfig{
			{Name: "heavy", Weight: cfg.HeavyWeight, MaxConcurrentRuns: cfg.RunQuota},
			{Name: "light", Weight: cfg.LightWeight, MaxConcurrentRuns: cfg.RunQuota},
		},
		QueueCapacity: 4 * cfg.RunsPerTenant,
		TaskSlots:     cfg.TaskSlots,
		RetryAfter:    0.05,
	}); err != nil {
		return err
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*cfg.RunsPerTenant)
	submitAll := func(tenant string) {
		defer wg.Done()
		c := env.client(tenant)
		ids := make([]string, 0, cfg.RunsPerTenant)
		for i := 0; i < cfg.RunsPerTenant; i++ {
			wf, err := serviceWorkflow(fmt.Sprintf("%s%d", tenant, i), cfg.TasksPerRun, env.stubSrv.URL()+"/wfbench")
			if err != nil {
				errs <- err
				return
			}
			st, err := c.Submit(ctx, wf)
			if err != nil {
				errs <- fmt.Errorf("submit %s run %d: %w", tenant, i, err)
				return
			}
			ids = append(ids, st.ID)
		}
		for _, id := range ids {
			st, err := c.Wait(ctx, id, 20*time.Millisecond)
			if err != nil {
				errs <- err
				return
			}
			if st.State != wfmd.StateSucceeded {
				errs <- fmt.Errorf("%s run %s ended %s: %s", tenant, id, st.State, st.Error)
				return
			}
		}
	}
	wg.Add(2)
	go submitAll("heavy")
	go submitAll("light")
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	for _, ts := range env.srv.TenantStats() {
		switch ts.Tenant {
		case "heavy":
			rep.HeavyRuns = int(ts.RunsAccepted)
			rep.HeavyHighwater = ts.RunHighwater
			rep.HeavyContested = ts.ContestedGrants
		case "light":
			rep.LightRuns = int(ts.RunsAccepted)
			rep.LightHighwater = ts.RunHighwater
			rep.LightContested = ts.ContestedGrants
		}
		if ts.TaskHighwater > rep.TaskHighwater {
			rep.TaskHighwater = ts.TaskHighwater
		}
	}
	rep.GateQuota = rep.HeavyHighwater <= cfg.RunQuota && rep.LightHighwater <= cfg.RunQuota &&
		rep.HeavyHighwater > 0 && rep.LightHighwater > 0
	if rep.LightContested > 0 {
		rep.ContestedRatio = float64(rep.HeavyContested) / float64(rep.LightContested)
	}
	rep.GateFairShare = rep.HeavyContested > 0 && rep.LightContested > 0 &&
		rep.ContestedRatio >= rep.TargetRatio*0.85 && rep.ContestedRatio <= rep.TargetRatio*1.15
	return nil
}

// serviceBackpressure floods a two-deep queue and checks rejection is
// honest (429 + Retry-After) and retrying clients eventually land.
func serviceBackpressure(ctx context.Context, cfg ServiceConfig, rep *ServiceReport) error {
	env, err := newServiceEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	if err := env.start(cfg, wfmd.Config{
		Tenants:       []wfmd.TenantConfig{{Name: "flood", Weight: 1, MaxConcurrentRuns: 1}},
		QueueCapacity: 2,
		TaskSlots:     cfg.TaskSlots,
		RetryAfter:    0.05,
	}); err != nil {
		return err
	}

	// Raw POSTs, no retry: with quota 1 and a queue of 2, the burst
	// must overflow into 429s carrying a Retry-After hint.
	const burst = 8
	accepted := 0
	for i := 0; i < burst; i++ {
		wf, err := serviceWorkflow(fmt.Sprintf("bp%d", i), cfg.TasksPerRun/4, env.stubSrv.URL()+"/wfbench")
		if err != nil {
			return err
		}
		resp, err := http.Post(env.http.URL+"/v1/runs?tenant=flood", "application/json", bytes.NewReader(wf))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rep.Submitted429++
			if h := resp.Header.Get("Retry-After"); rep.RetryAfterHdr == "" && wfm.ParseRetryAfter(h) > 0 {
				rep.RetryAfterHdr = h
			}
		default:
			return fmt.Errorf("backpressure burst: unexpected status %d", resp.StatusCode)
		}
	}

	// The polite client retries the rejected remainder on the shared
	// backoff policy until the queue drains.
	c := env.client("flood")
	for i := 0; i < burst-accepted; i++ {
		wf, err := serviceWorkflow(fmt.Sprintf("bpretry%d", i), cfg.TasksPerRun/4, env.stubSrv.URL()+"/wfbench")
		if err != nil {
			return err
		}
		if _, err := c.Submit(ctx, wf); err != nil {
			return fmt.Errorf("backpressure retry %d: %w", i, err)
		}
	}
	// Drain everything.
	runs, err := c.List(ctx, false)
	if err != nil {
		return err
	}
	for _, st := range runs {
		final, err := c.Wait(ctx, st.ID, 20*time.Millisecond)
		if err != nil {
			return err
		}
		if final.State != wfmd.StateSucceeded {
			return fmt.Errorf("backpressure run %s ended %s", st.ID, final.State)
		}
		rep.DrainedRuns++
	}
	rep.GateBackpressure = rep.Submitted429 > 0 && rep.RetryAfterHdr != "" &&
		rep.DrainedRuns == burst
	return nil
}

// serviceRecovery kills the daemon mid-flight and checks the restart
// resumes every incomplete run without re-invoking journal-recorded
// completions.
func serviceRecovery(ctx context.Context, cfg ServiceConfig, rep *ServiceReport) error {
	env, err := newServiceEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	svc := wfmd.Config{
		Tenants: []wfmd.TenantConfig{
			{Name: "heavy", Weight: cfg.HeavyWeight, MaxConcurrentRuns: cfg.RunQuota},
			{Name: "light", Weight: cfg.LightWeight, MaxConcurrentRuns: cfg.RunQuota},
		},
		QueueCapacity: 16,
		TaskSlots:     cfg.TaskSlots,
		RetryAfter:    0.05,
	}
	if err := env.start(cfg, svc); err != nil {
		return err
	}

	// Life 1: submit runs for both tenants, let roughly a third of the
	// total work land, then crash.
	type submitted struct {
		id, tenant string
	}
	var subs []submitted
	for _, tenant := range []string{"heavy", "light"} {
		c := env.client(tenant)
		for i := 0; i < 2; i++ {
			wf, err := serviceWorkflow(fmt.Sprintf("rc_%s%d", tenant, i), cfg.TasksPerRun, env.stubSrv.URL()+"/wfbench")
			if err != nil {
				return err
			}
			st, err := c.Submit(ctx, wf)
			if err != nil {
				return err
			}
			subs = append(subs, submitted{st.ID, tenant})
		}
	}
	rep.RecoveryRuns = len(subs)
	target := len(subs) * cfg.TasksPerRun / 3
	deadline := time.Now().Add(30 * time.Second)
	for env.stub.Total() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("recovery phase: stub saw %d executions, wanted %d", env.stub.Total(), target)
		}
		time.Sleep(2 * time.Millisecond)
	}
	env.stopHTTP()
	env.srv.Abort() // blocks until every executor is down; journals lose unsynced tails
	env.srv = nil

	// Snapshot the ground truth: per-run journal-recorded completions
	// and the stub's execution counts at the moment of death.
	type recorded struct {
		run   string
		names []string
	}
	var journalled []recorded
	logged, err := wfmd.ReadDataDir(env.dataDir)
	if err != nil {
		return err
	}
	byID := make(map[string]*wfmd.RunRecord, len(logged))
	for _, lr := range logged {
		byID[lr.Meta.ID] = lr
	}
	for _, sub := range subs {
		lr := byID[sub.id]
		if lr == nil {
			return fmt.Errorf("recovery: run %s is not in the service log", sub.id)
		}
		w, err := wfformat.Parse(lr.Workflow)
		if err != nil {
			return err
		}
		names := w.TaskNames()
		rec := recorded{run: sub.id}
		for _, id := range wfm.SummarizeJournal(lr.Records, lr.Torn).CompletedIDs {
			rec.names = append(rec.names, names[id])
		}
		rep.CrashCompleted += len(rec.names)
		journalled = append(journalled, rec)
	}
	countsAtCrash := env.stub.Counts()

	// Life 2: same data dir, fresh daemon. Every incomplete run must
	// come back and finish.
	if err := env.start(cfg, svc); err != nil {
		return err
	}
	c := env.client("")
	for _, sub := range subs {
		st, err := c.Wait(ctx, sub.id, 20*time.Millisecond)
		if err != nil {
			return err
		}
		if st.State != wfmd.StateSucceeded {
			return fmt.Errorf("recovery run %s ended %s: %s", sub.id, st.State, st.Error)
		}
		rep.RecoveredSucceeded++
		if st.Resumed {
			rep.ResumedRuns++
		}
	}
	after := env.stub.Counts()
	for _, rec := range journalled {
		for _, name := range rec.names {
			if after[name] != countsAtCrash[name] {
				rep.DuplicateInvocations++
			}
		}
	}
	rep.GateRecovery = rep.RecoveredSucceeded == rep.RecoveryRuns &&
		rep.ResumedRuns > 0 && rep.CrashCompleted > 0 &&
		rep.DuplicateInvocations == 0
	return nil
}

// WriteServiceReport renders the campaign outcome with one gate line
// per acceptance check.
func WriteServiceReport(w io.Writer, r *ServiceReport) error {
	gate := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	_, err := fmt.Fprintf(w, `fairness/quota
  runs: heavy=%d light=%d   run highwater: heavy=%d light=%d (quota %d)
  contested grants: heavy=%d light=%d   ratio %.2f (target %.2f +-15%%)
  task highwater %d (slots %d)
  [%s] per-tenant concurrent-run quota never exceeded
  [%s] fair-share dispatch ratio within 15%% of weights
backpressure
  429s=%d retry-after=%q drained=%d
  [%s] queue overflow rejected with 429 + Retry-After, retries drained
recovery
  runs=%d journalled-complete-at-crash=%d resumed=%d duplicates=%d
  [%s] restart resumed every run, zero duplicate invocations
`,
		r.HeavyRuns, r.LightRuns, r.HeavyHighwater, r.LightHighwater, r.RunQuota,
		r.HeavyContested, r.LightContested, r.ContestedRatio, r.TargetRatio,
		r.TaskHighwater, r.TaskSlots,
		gate(r.GateQuota), gate(r.GateFairShare),
		r.Submitted429, r.RetryAfterHdr, r.DrainedRuns, gate(r.GateBackpressure),
		r.RecoveryRuns, r.CrashCompleted, r.ResumedRuns, r.DuplicateInvocations,
		gate(r.GateRecovery))
	return err
}
