package wfmd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// newCountingStub is a loopback WfBench endpoint that counts invocations
// per task name and publishes outputs to the drive.
func newCountingStub(drive sharedfs.Drive, delay time.Duration) (*wfbench.Stub, *httptest.Server) {
	stub := wfbench.NewStub(drive, delay)
	srv := httptest.NewServer(wfbench.NewEndpoint(stub))
	srv.URL += "/wfbench" // what tests hand out as the api_url
	return stub, srv
}

// fanoutWorkflow builds a root + (tasks-1) children DAG whose task and
// output names carry prefix, so concurrent runs on one shared drive
// never collide.
func fanoutWorkflow(t testing.TB, prefix string, tasks int, url string) []byte {
	t.Helper()
	w := wfformat.New(prefix)
	name := func(i int) string { return fmt.Sprintf("%s_t%04d", prefix, i) }
	out := func(i int) string { return fmt.Sprintf("%s_out%04d", prefix, i) }
	mk := func(i int, parent int) *wfformat.Task {
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
		t.Fatal(err)
	}
	for i := 1; i < tasks; i++ {
		if err := w.AddTask(mk(i, 0)); err != nil {
			t.Fatal(err)
		}
		if err := w.Link(name(0), name(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testConfig(t testing.TB, drive sharedfs.Drive) Config {
	t.Helper()
	return Config{
		DataDir: t.TempDir(),
		Manager: wfm.Options{
			Drive:       drive,
			TimeScale:   0.001,
			MaxParallel: 32,
			Scheduling:  wfm.ScheduleDependency,
			InputWait:   5000,
		},
		DefaultTenant: TenantConfig{Weight: 1, MaxConcurrentRuns: 8},
		QueueCapacity: 64,
		MaxActiveRuns: 32,
		TaskSlots:     32,
		RetryAfter:    0.01,
	}
}

// TestLifecycleOverHTTP exercises the full wire path: submit via the
// Client, watch live status, fetch the result, list runs, scrape
// metrics.
func TestLifecycleOverHTTP(t *testing.T) {
	drive := sharedfs.NewMem()
	_, stub := newCountingStub(drive, 0)
	defer stub.Close()
	srv, err := New(testConfig(t, drive))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	api := httptest.NewServer(srv.Handler())
	defer api.Close()

	c := &Client{BaseURL: api.URL, Tenant: "team-a", Priority: "high"}
	ctx := context.Background()
	st, err := c.Submit(ctx, fanoutWorkflow(t, "life", 8, stub.URL))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh run state %q", st.State)
	}
	if st.Tenant != "team-a" || st.Priority != "high" || st.Tasks != 8 {
		t.Fatalf("submission echoed %+v", st)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded || final.Done != 8 {
		t.Fatalf("final %+v, want succeeded with 8 done", final)
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 || res.State != StateSucceeded {
		t.Fatalf("result %+v", res)
	}
	list, err := c.List(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list %+v", list)
	}
	// Metrics surface: per-tenant families present on /metrics.
	resp, err := http.Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		`wfmd_runs_accepted_total{tenant="team-a"} 1`,
		`wfmd_runs_completed_total{tenant="team-a",state="succeeded"} 1`,
		"wfmd_queue_depth",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// Healthz from the shared telemetry mux.
	hres, err := http.Get(api.URL + "/healthz")
	if err != nil || hres.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hres)
	}
	hres.Body.Close()
}

// TestBadSubmissions pins the 400 paths: junk JSON, a structurally
// invalid workflow, a valid one with no api_url — refused in the
// manager's own words, because it is the manager's check — and unknown
// runs 404.
func TestBadSubmissions(t *testing.T) {
	drive := sharedfs.NewMem()
	srv, err := New(testConfig(t, drive))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	api := httptest.NewServer(srv.Handler())
	defer api.Close()

	post := func(body string) (int, string) {
		resp, err := http.Post(api.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	if code, _ := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("junk JSON: %d", code)
	}
	w := wfformat.New("no-args")
	w.AddTask(&wfformat.Task{Name: "t", Type: wfformat.TypeCompute,
		Command: wfformat.Command{Program: "wfbench"}})
	data, _ := w.Marshal()
	if code, msg := post(string(data)); code != http.StatusBadRequest || !strings.Contains(msg, "argument blocks") {
		t.Fatalf("invalid workflow: %d %s", code, msg)
	}
	untranslated := fanoutWorkflow(t, "nourl", 3, "")
	if code, msg := post(string(untranslated)); code != http.StatusBadRequest ||
		!strings.Contains(msg, "has no api_url; run a translator first") {
		t.Fatalf("no api_url: %d %s", code, msg)
	}
	resp, err := http.Get(api.URL + "/v1/runs/r-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %d", resp.StatusCode)
	}
}

// TestBackpressure fills the admission queue and checks overflow gets
// 429 + Retry-After, and that the Client's retry loop eventually lands
// the submission once the queue drains.
func TestBackpressure(t *testing.T) {
	drive := sharedfs.NewMem()
	stub429, stubSrv := newCountingStub(drive, 30*time.Millisecond)
	_ = stub429
	defer stubSrv.Close()
	cfg := testConfig(t, drive)
	cfg.QueueCapacity = 1
	cfg.MaxActiveRuns = 1
	cfg.DefaultTenant.MaxConcurrentRuns = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	api := httptest.NewServer(srv.Handler())
	defer api.Close()

	// Raw submissions, no retry: the first is admitted (starts
	// running), the second queues, the third must bounce.
	var rejected *http.Response
	for i := 0; i < 3; i++ {
		body := fanoutWorkflow(t, fmt.Sprintf("bp%d", i), 6, stubSrv.URL)
		resp, err := http.Post(api.URL+"/v1/runs?tenant=bp", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: %d", i, resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("queue never overflowed")
	}
	ra := rejected.Header.Get("Retry-After")
	rejected.Body.Close()
	if wfm.ParseRetryAfter(ra) <= 0 {
		t.Fatalf("429 without usable Retry-After %q", ra)
	}
	// The Client keeps retrying on the backoff schedule and must get
	// in once earlier runs finish.
	c := &Client{BaseURL: api.URL, Tenant: "bp", RetryBackoff: 0.01, RetryBackoffMax: 0.1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, fanoutWorkflow(t, "bp-retry", 4, stubSrv.URL))
	if err != nil {
		t.Fatalf("retried submission never accepted: %v", err)
	}
	if fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || fin.State != StateSucceeded {
		t.Fatalf("retried run: %+v %v", fin, err)
	}
}

// TestCancel covers both cancellation paths: a running run and a
// queued run.
func TestCancel(t *testing.T) {
	drive := sharedfs.NewMem()
	_, stub := newCountingStub(drive, 50*time.Millisecond)
	defer stub.Close()
	cfg := testConfig(t, drive)
	cfg.MaxActiveRuns = 1
	cfg.DefaultTenant.MaxConcurrentRuns = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	running, err := srv.Submit("c", "", fanoutWorkflow(t, "cxl-run", 16, stub.URL))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit("c", "", fanoutWorkflow(t, "cxl-q", 4, stub.URL))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range []string{running.ID, queued.ID} {
		for {
			st, err := srv.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if IsTerminal(st.State) {
				if st.State != StateCancelled {
					t.Fatalf("run %s ended %q, want cancelled", id, st.State)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s never terminal", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestRestartResume aborts the daemon mid-run (journal tails dropped,
// like SIGKILL) and checks a new server on the same data dir resumes
// every incomplete run to completion with zero duplicate invocations
// of journal-recovered tasks.
func TestRestartResume(t *testing.T) {
	drive := sharedfs.NewMem()
	stub, stubSrv := newCountingStub(drive, 2*time.Millisecond)
	defer stubSrv.Close()
	cfg := testConfig(t, drive)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const runs, tasks = 3, 24
	ids := make([]string, runs)
	for i := range ids {
		st, err := srv.Submit("r", "", fanoutWorkflow(t, fmt.Sprintf("res%d", i), tasks, stubSrv.URL))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	// Let roughly a third of the work complete, then crash.
	deadline := time.Now().Add(10 * time.Second)
	for stub.Total() < runs*tasks/3 {
		if time.Now().After(deadline) {
			t.Fatal("stub never saw enough invocations")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.Abort()

	// What the journals say completed before the crash is exactly what
	// resume must not re-invoke. Task IDs map to sorted task names.
	preCounts := make(map[string]int)
	recorded := make(map[string]bool)
	logged, err := ReadDataDir(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range logged {
		w, err := wfformat.Parse(lr.Workflow)
		if err != nil {
			t.Fatal(err)
		}
		names := w.TaskNames()
		for _, tid := range wfm.SummarizeJournal(lr.Records, lr.Torn).CompletedIDs {
			recorded[names[tid]] = true
		}
	}
	for name := range recorded {
		preCounts[name] = stub.Counts()[name]
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Stop()
	deadline = time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			st, err := srv2.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == StateSucceeded {
				break
			}
			if IsTerminal(st.State) {
				t.Fatalf("run %s ended %q after restart", id, st.State)
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s never completed after restart", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	dups := 0
	for name, pre := range preCounts {
		if got := stub.Counts()[name]; got > pre {
			dups++
			t.Errorf("journal-recorded task %s re-invoked: %d → %d", name, pre, got)
		}
	}
	if dups > 0 {
		t.Fatalf("%d duplicate invocations after resume", dups)
	}
	// Results must report recovery, and completed runs stay terminal on
	// yet another restart.
	recoveredTotal := 0
	for _, id := range ids {
		res, err := srv2.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != tasks {
			t.Fatalf("run %s completed %d/%d", id, res.Completed, tasks)
		}
		recoveredTotal += res.Recovered
	}
	if len(recorded) > 0 && recoveredTotal == 0 {
		t.Fatalf("journals recorded %d completions but no run reported recovery", len(recorded))
	}
	srv2.Stop()
	srv3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Stop()
	for _, id := range ids {
		st, err := srv3.Status(id)
		if err != nil || st.State != StateSucceeded {
			t.Fatalf("run %s after third boot: %+v %v", id, st, err)
		}
	}
}

// TestGracefulStopResumes checks Stop (clean shutdown) leaves
// interrupted runs resumable: journals closed clean, no terminal
// marker, next boot re-admits and completes them.
func TestGracefulStopResumes(t *testing.T) {
	drive := sharedfs.NewMem()
	stub, stubSrv := newCountingStub(drive, 5*time.Millisecond)
	defer stubSrv.Close()
	cfg := testConfig(t, drive)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Submit("g", "", fanoutWorkflow(t, "grace", 32, stubSrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for stub.Total() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.Stop()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Stop()
	fin, err := (&Client{}).waitOn(srv2, st.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateSucceeded {
		t.Fatalf("resumed run ended %q", fin.State)
	}
}

// waitOn polls an embedded server directly (no HTTP) until terminal.
func (c *Client) waitOn(s *Server, id string, timeout time.Duration) (*RunStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Status(id)
		if err != nil {
			return nil, err
		}
		if IsTerminal(st.State) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("run %s not terminal after %v (state %s)", id, timeout, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTerminalStatusSurvivesRestart: a finished run's status document is
// byte-identical from the server that ran it and from a server reopened
// on the same data dir — retries included, which used to read from the
// live monitor only and so dropped to 0 after a restart — and the
// registry keeps none of the run's execution state once result.json is
// the durable copy.
func TestTerminalStatusSurvivesRestart(t *testing.T) {
	drive := sharedfs.NewMem()
	stub, _ := newCountingStub(drive, 0)
	var mu sync.Mutex
	failed := false
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		first := !failed
		failed = true
		mu.Unlock()
		if first {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		wfbench.NewEndpoint(stub).ServeHTTP(w, r)
	}))
	defer flaky.Close()
	cfg := testConfig(t, drive)
	cfg.Manager.Retries = 2

	statusJSON := func(s *Server, id string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s = %d: %s", id, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Submit("r", "", fanoutWorkflow(t, "term", 8, flaky.URL+"/wfbench"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := srv.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateSucceeded {
			if cur.Retries != 1 {
				t.Fatalf("retries = %d, want the one injected 500 retried", cur.Retries)
			}
			break
		}
		if IsTerminal(cur.State) || time.Now().After(deadline) {
			t.Fatalf("run did not succeed: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}
	live := statusJSON(srv, st.ID)
	r := srv.lookup(st.ID)
	r.mu.Lock()
	if r.w != nil || r.mon != nil || r.cancel != nil {
		t.Errorf("finished run still holds workflow=%v monitor=%v cancel=%v", r.w != nil, r.mon != nil, r.cancel != nil)
	}
	r.mu.Unlock()
	srv.Stop()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Stop()
	if reopened := statusJSON(srv2, st.ID); reopened != live {
		t.Errorf("terminal status changed across a restart:\n live     %s reopened %s", live, reopened)
	}
}

// TestRunningCountsSlotHolders: a run's running count is the tasks that
// hold one of the service's task slots, not those still waiting for one,
// so summed over concurrent runs it never exceeds TaskSlots. Each poll
// reads the runs forwards and then backwards and keeps a run's smaller
// reading, so a slot moving between two runs mid-poll is not counted
// twice.
func TestRunningCountsSlotHolders(t *testing.T) {
	drive := sharedfs.NewMem()
	_, stub := newCountingStub(drive, 10*time.Millisecond)
	defer stub.Close()
	cfg := testConfig(t, drive)
	cfg.Manager.MaxParallel = 8
	cfg.TaskSlots = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := srv.Submit(fmt.Sprintf("t%d", i%2), "", fanoutWorkflow(t, fmt.Sprintf("slots%d", i), 12, stub.URL))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	read := func(id string) *RunStatus {
		st, err := srv.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		running := make([]int64, len(ids))
		terminal := 0
		for i, id := range ids {
			running[i] = read(id).Running
		}
		for i := len(ids) - 1; i >= 0; i-- {
			st := read(ids[i])
			running[i] = min(running[i], st.Running)
			if IsTerminal(st.State) {
				if st.State != StateSucceeded {
					t.Fatalf("run %s ended %q", st.ID, st.State)
				}
				terminal++
			}
		}
		var sum int64
		for _, r := range running {
			sum += r
		}
		if sum > int64(cfg.TaskSlots) {
			t.Fatalf("runs report %v running (%d in all) through %d task slots", running, sum, cfg.TaskSlots)
		}
		if terminal == len(ids) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("runs not terminal after 30s")
		}
		time.Sleep(time.Millisecond)
	}
}
