package wfmd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"wfserverless/internal/journal"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// stubTransport serves every request in process from the stub's
// endpoint, whatever host its api_url names.
type stubTransport struct{ h http.Handler }

func (t stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// get answers GET path from s's handler.
func get(t *testing.T, s *Server, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

func waitSucceeded(t *testing.T, s *Server, id string) *RunStatus {
	t.Helper()
	st, err := (&Client{}).waitOn(s, id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateSucceeded {
		t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
	}
	return st
}

// TestRunCreatesNoFiles: an untraced run writes only to the service
// log, so twenty of them leave nothing under DataDir but the one life's
// log, one segment file.
func TestRunCreatesNoFiles(t *testing.T) {
	drive := sharedfs.NewMem()
	_, stub := newCountingStub(drive, 0)
	defer stub.Close()
	cfg := testConfig(t, drive)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	var ids []string
	for i := 0; i < 20; i++ {
		st, err := srv.Submit("t", "", fanoutWorkflow(t, fmt.Sprintf("nofile%d", i), 4, stub.URL))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitSucceeded(t, srv, id)
	}
	var got []string
	filepath.WalkDir(cfg.DataDir, func(path string, _ fs.DirEntry, err error) error {
		if rel, _ := filepath.Rel(cfg.DataDir, path); err == nil && rel != "." {
			got = append(got, rel)
		}
		return nil
	})
	want := []string{"log", filepath.Join("log", "000001"), filepath.Join("log", "000001", "journal-00000001.wal")}
	if !slices.Equal(got, want) {
		t.Fatalf("data dir holds %v, want %v", got, want)
	}
}

// TestServiceLogCrashAtEveryRecord runs a session to completion, two
// tenants of three runs each, then starts a server on the log cut after
// each of its records in turn: a crash at every record boundary, not a
// sample of them.
func TestServiceLogCrashAtEveryRecord(t *testing.T) {
	drive := sharedfs.NewMem()
	stub, stubSrv := newCountingStub(drive, 0)
	defer stubSrv.Close()
	// One client for every life, so idle connections are shared and the
	// goroutine count can come back down.
	client := &http.Client{Transport: &http.Transport{}}
	cfg := testConfig(t, drive)
	cfg.Manager.Client = client
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tenant := range []string{"ta", "tb"} {
		for i := 0; i < 3; i++ {
			st, err := srv.Submit(tenant, "", fanoutWorkflow(t, fmt.Sprintf("cut_%s%d", tenant, i), 8, stubSrv.URL))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
	}
	status, result := map[string]string{}, map[string]string{}
	for _, id := range ids {
		waitSucceeded(t, srv, id)
		status[id] = get(t, srv, "/v1/runs/"+id)
		result[id] = get(t, srv, "/v1/runs/"+id+"/result")
	}
	srv.Stop()
	client.CloseIdleConnections()
	goroutines := runtime.NumGoroutine()

	seg := filepath.Join("log", "000001", "journal-00000001.wal")
	data, err := os.ReadFile(filepath.Join(cfg.DataDir, seg))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Read(filepath.Join(cfg.DataDir, seg))
	if err != nil || rep.Torn {
		t.Fatalf("reference log: %v, torn %v", err, rep != nil && rep.Torn)
	}
	bounds := []int{8} // just past the segment magic
	for _, rec := range rep.Records {
		bounds = append(bounds, bounds[len(bounds)-1]+9+len(rec.Data))
	}
	if bounds[len(bounds)-1] != len(data) {
		t.Fatalf("record boundaries end at %d of %d bytes", bounds[len(bounds)-1], len(data))
	}
	root := t.TempDir()
	for k, end := range bounds {
		dir := filepath.Join(root, fmt.Sprint(k))
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(seg)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, seg), data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		// Which runs the prefix submitted and ended, read off the raw
		// records' kinds and tags rather than the fold under test.
		var want []string
		ended, recorded := map[string]bool{}, map[string]bool{}
		last := 0
		for _, rec := range rep.Records[:k] {
			seq, _ := binary.Uvarint(rec.Data)
			switch rec.Kind {
			case kindSubmit:
				want = append(want, runID(int(seq)))
				last = max(last, int(seq))
			case kindEnd:
				ended[runID(int(seq))] = true
			}
		}
		prefix, err := ReadDataDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		// What the prefix records complete must never run again: every
		// task of an ended run, the recorded completions of the others.
		for _, lr := range prefix {
			w, err := wfformat.Parse(lr.Workflow)
			if err != nil {
				t.Fatal(err)
			}
			names := w.TaskNames()
			if ended[lr.Meta.ID] {
				for _, name := range names {
					recorded[name] = true
				}
				continue
			}
			for _, id := range wfm.SummarizeJournal(lr.Records, lr.Torn).CompletedIDs {
				recorded[names[id]] = true
			}
		}
		before := stub.Counts()
		c := cfg
		c.DataDir = dir
		s, err := New(c)
		if err != nil {
			t.Fatalf("cut after record %d: %v", k, err)
		}
		var got []string
		for _, st := range s.List("") {
			got = append(got, st.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cut after record %d: runs %v, want %v", k, got, want)
		}
		for _, id := range want {
			waitSucceeded(t, s, id)
			if ended[id] && (get(t, s, "/v1/runs/"+id) != status[id] || get(t, s, "/v1/runs/"+id+"/result") != result[id]) {
				t.Errorf("cut after record %d: finished run %s reads differently after the restart", k, id)
			}
		}
		after := stub.Counts()
		for name := range recorded {
			if after[name] != before[name] {
				t.Errorf("cut after record %d: recorded task %s invoked again", k, name)
			}
		}
		fresh, err := s.Submit("ta", "", fanoutWorkflow(t, fmt.Sprintf("cut_new%d", k), 1, stubSrv.URL))
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := parseRunID(fresh.ID); n <= last {
			t.Errorf("cut after record %d: new run %s, but the log holds %s", k, fresh.ID, runID(last))
		}
		waitSucceeded(t, s, fresh.ID)
		s.Stop()
		client.CloseIdleConnections()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cuts, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
}

// TestServiceLogSplitsLargeSubmission: a workflow past one record's
// limit is logged in several records and folds back whole.
func TestServiceLogSplitsLargeSubmission(t *testing.T) {
	cfg := testConfig(t, sharedfs.NewMem())
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), submitChunk/16+64)
	if err := srv.logSubmit(7, RunMeta{Tenant: "big", Tasks: 1}, big); err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	runs, err := ReadDataDir(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Meta.ID != "r-000007" || !bytes.Equal(runs[0].Workflow, big) {
		t.Fatalf("folded %d runs, want r-000007 with its %d bytes whole", len(runs), len(big))
	}
}

// TestParentDataDirMigrates starts on testdata/parent-datadir, a data
// dir the wfmd with a directory per run wrote (r-000001 succeeded,
// r-000002 killed mid-run, both against an in-process stub at
// parent.invalid), and on what that start leaves behind.
func TestParentDataDirMigrates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	const src = "testdata/parent-datadir"
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(src, path)
		switch {
		case err != nil:
			return err
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, rel), data, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	const done, killed = "r-000001", "r-000002"
	// The killed run's recorded completions left their outputs on the drive.
	drive := sharedfs.NewMem()
	body, err := os.ReadFile(filepath.Join(dir, "runs", killed, "workflow.json"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := wfformat.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := wfm.ReadRunJournal(filepath.Join(dir, "runs", killed, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sum.CompletedIDs); n == 0 || n == w.Len() {
		t.Fatalf("fixture: %d of %d tasks recorded complete", n, w.Len())
	}
	names := w.TaskNames()
	var recorded []string
	for _, id := range sum.CompletedIDs {
		recorded = append(recorded, names[id])
		for _, f := range w.Tasks[names[id]].Files {
			if f.Link == wfformat.LinkOutput {
				drive.WriteFile(f.Name, f.SizeInBytes)
			}
		}
	}
	stub := wfbench.NewStub(drive, 0)
	cfg := testConfig(t, drive)
	cfg.DataDir = dir
	cfg.Manager.Client = &http.Client{Transport: stubTransport{wfbench.NewEndpoint(stub)}}
	wantStatus, err := os.ReadFile("testdata/parent-" + done + ".status.json")
	if err != nil {
		t.Fatal(err)
	}
	wantResult, err := os.ReadFile("testdata/parent-" + done + ".result.json")
	if err != nil {
		t.Fatal(err)
	}
	start := func() *Server {
		t.Helper()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := get(t, s, "/v1/runs/"+done); got != string(wantStatus) {
			t.Errorf("GET /v1/runs/%s:\n got  %s want %s", done, got, wantStatus)
		}
		if got := get(t, s, "/v1/runs/"+done+"/result"); got != string(wantResult) {
			t.Errorf("GET /v1/runs/%s/result:\n got  %s want %s", done, got, wantResult)
		}
		return s
	}

	srv := start()
	if st := waitSucceeded(t, srv, killed); !st.Resumed {
		t.Errorf("killed run not reported resumed: %+v", st)
	}
	for _, name := range recorded {
		if n := stub.Counts()[name]; n != 0 {
			t.Errorf("recorded task %s invoked %d times after the migration", name, n)
		}
	}
	srv.Stop()
	if _, err := os.Stat(filepath.Join(dir, "runs")); !os.IsNotExist(err) {
		t.Fatalf("runs/ survived the migration: %v", err)
	}

	// A crash between the fold and the rename: runs/ is still there on
	// the next start, which must skip every run the log already holds.
	if err := os.Rename(filepath.Join(dir, "runs.pre-log"), filepath.Join(dir, "runs")); err != nil {
		t.Fatal(err)
	}
	srv = start()
	if n := len(srv.List("")); n != 2 {
		t.Errorf("%d runs after a second fold, want 2", n)
	}
	srv.Stop()
	segs, err := filepath.Glob(filepath.Join(dir, "log", "*", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	submits := 0
	for _, seg := range segs {
		rep, err := journal.Read(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rep.Records {
			if rec.Kind == kindSubmit {
				submits++
			}
		}
	}
	if submits != 2 {
		t.Errorf("the log holds %d submit records, want 2", submits)
	}

	// From here on the log alone is read.
	if err := os.RemoveAll(filepath.Join(dir, "runs.pre-log")); err != nil {
		t.Fatal(err)
	}
	srv = start()
	defer srv.Stop()
	if st, err := srv.Status(killed); err != nil || st.State != StateSucceeded {
		t.Fatalf("%s after the last restart: %+v %v", killed, st, err)
	}
}

// TestSubmitPresizeIsBounded: a Content-Length the body does not back
// buys no buffer — 1 GiB declared over a 2-byte body.
func TestSubmitPresizeIsBounded(t *testing.T) {
	srv, err := New(testConfig(t, sharedfs.NewMem()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader("{,"))
	req.ContentLength = 1 << 30
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST answered %d: %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("the submission allocated %d bytes", got)
	}
}

// TestSubmitDoesNotRetainBody: a run queued behind another executes on
// what Submit compiled, so its body's pooled buffer may be overwritten
// the moment the 202 is sent.
func TestSubmitDoesNotRetainBody(t *testing.T) {
	drive := sharedfs.NewMem()
	_, stub := newCountingStub(drive, 20*time.Millisecond)
	defer stub.Close()
	cfg := testConfig(t, drive)
	cfg.MaxActiveRuns = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	first, err := srv.Submit("p", "", fanoutWorkflow(t, "pool_first", 4, stub.URL))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?tenant=p",
		bytes.NewReader(fanoutWorkflow(t, "pool_queued", 4, stub.URL))))
	if rec.Code != http.StatusAccepted || !strings.Contains(rec.Body.String(), `"state":"queued"`) {
		t.Fatalf("POST answered %d: %s", rec.Code, rec.Body)
	}
	var queued RunStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &queued); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		bp := bufs.Get().(*[]byte)
		b := (*bp)[:cap(*bp)]
		for j := range b {
			b[j] = '#'
		}
	}
	waitSucceeded(t, srv, first.ID)
	waitSucceeded(t, srv, queued.ID)
}

// TestRunAllocationCeiling pins what one 1-task run costs the service
// in allocations, submit to terminal, against an in-process platform.
// Before the service log (a directory and files per run, and a whole
// wfm.Trace built for every run to look for spans) this test measured
// 244 allocs (31 KB) per run; with it, 173 (24 KB).
func TestRunAllocationCeiling(t *testing.T) {
	drive := sharedfs.NewMem()
	cfg := testConfig(t, drive)
	cfg.Manager.Client = &http.Client{Transport: inProcessPlatform{drive}}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	body := fanoutWorkflow(t, "alloc", 1, "http://alloc.invalid/wfbench")
	one := func() {
		st, err := srv.Submit("a", "", body)
		if err != nil {
			t.Fatal(err)
		}
		for cur := st; !IsTerminal(cur.State); time.Sleep(time.Millisecond) {
			if cur, err = srv.Status(st.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		one()
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		one()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.0f allocs, %.1f KB per run", perRun, float64(after.TotalAlloc-before.TotalAlloc)/runs/1024)
	const ceiling = 200
	if perRun > ceiling {
		t.Errorf("%.0f allocs per run, ceiling %d", perRun, ceiling)
	}
}
