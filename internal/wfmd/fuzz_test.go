package wfmd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wfserverless/internal/journal"
	"wfserverless/internal/recipes"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

// inProcessPlatform answers every invocation without a socket, whatever
// api_url a fuzzed workflow names: it publishes the request's outputs to
// the drive and reports success, like countingStub.
type inProcessPlatform struct{ drive sharedfs.Drive }

func (p inProcessPlatform) RoundTrip(r *http.Request) (*http.Response, error) {
	defer r.Body.Close()
	var req wfbench.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, err
	}
	for name, size := range req.Out {
		p.drive.WriteFile(name, size) // a name or size the drive refuses fails the consumer, not the test
	}
	body, err := wfbench.MarshalResponse(&wfbench.Response{Name: req.Name, OK: true})
	if err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}, nil
}

// FuzzServiceLogReplay hands New arbitrary bytes as a life's service
// log segment. New either refuses the data dir or folds it into a
// registry it starts on; nothing panics, and the server stops.
func FuzzServiceLogReplay(f *testing.F) {
	// A real session's log, and cuts of it, seed the corpus.
	drive := sharedfs.NewMem()
	cfg := testConfig(f, drive)
	cfg.Manager.Client = &http.Client{Transport: inProcessPlatform{drive}}
	srv, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		st, err := srv.Submit("fuzz", "", fanoutWorkflow(f, fmt.Sprintf("seed%d", i), 3, "http://fuzz.invalid/wfbench"))
		if err != nil {
			f.Fatal(err)
		}
		if i == 0 {
			for now := st; !IsTerminal(now.State); time.Sleep(time.Millisecond) {
				if now, err = srv.Status(st.ID); err != nil {
					f.Fatal(err)
				}
			}
		}
	}
	srv.Stop()
	seg, err := os.ReadFile(filepath.Join(cfg.DataDir, "log", "000001", "journal-00000001.wal"))
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{len(seg), len(seg) / 2, len(seg) / 3, 8, 0} {
		f.Add(seg[:cut])
	}
	f.Add([]byte("not a segment"))
	f.Fuzz(func(t *testing.T, data []byte) {
		drive := sharedfs.NewMem()
		cfg := testConfig(t, drive)
		cfg.JournalSync = journal.SyncNever
		cfg.Manager.TimeScale = 1e-6
		cfg.Manager.InputWait = 0
		cfg.Manager.Client = &http.Client{Transport: inProcessPlatform{drive}}
		life := filepath.Join(cfg.DataDir, "log", "000001")
		if err := os.MkdirAll(life, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(life, "journal-00000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := New(cfg)
		if err != nil {
			return
		}
		for _, st := range srv.List("") {
			if _, err := srv.Status(st.ID); err != nil {
				t.Fatalf("listed run %s has no status: %v", st.ID, err)
			}
		}
		srv.Stop()
	})
}

// FuzzSubmit feeds POST /v1/runs the bytes the network may send it.
// Nothing panics and the answer is 202 or 400. A body answered 202 is one
// the manager's Resume starts on — the admission check is the run's own
// compile — and its run reaches a terminal state.
func FuzzSubmit(f *testing.F) {
	for _, recipe := range recipes.Names() {
		w, err := wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: 12, Seed: 1, CPUWork: 1})
		if err != nil {
			f.Fatal(err)
		}
		untranslated, err := w.MarshalCompact()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(untranslated) // no api_url: 400
		w, err = translator.Knative(w, translator.KnativeOptions{IngressURL: "http://ingress.invalid"})
		if err != nil {
			f.Fatal(err)
		}
		body, err := w.MarshalCompact()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"name":"one","tasks":{"a":{"name":"a","type":"compute","cores":1,"command":{"program":"wfbench","arguments":[{"name":"a","out":{"o":-1},"inputs":["never_made"]}],"api_url":"ftp://[::1"},"files":[{"link":"input","name":"never_made","sizeInBytes":1}]}}}`))
	f.Add([]byte(`{"tasks":{"a":null}}`))
	f.Add([]byte(`{"tasks":{"a":{"name":"a","parents":["a"],"children":["a"]}}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		drive := sharedfs.NewMem()
		cfg := testConfig(t, drive)
		cfg.JournalSync = journal.SyncNever
		cfg.Manager.TimeScale = 1e-6 // an input that never appears is waited for for microseconds
		cfg.Manager.InputWait = 0
		cfg.Manager.Client = &http.Client{Transport: inProcessPlatform{drive}}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Stop()

		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?tenant=fuzz", bytes.NewReader(body)))
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST /v1/runs answered %d: %s", rec.Code, rec.Body)
		}
		var st RunStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		w, err := wfformat.Parse(body)
		if err != nil {
			t.Fatalf("accepted a body that does not parse: %v", err)
		}
		if _, err := wfm.CompileRunnable(w); err != nil {
			t.Fatalf("accepted a workflow the manager refuses: %v", err)
		}
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(200 * time.Microsecond) {
			now, err := srv.Status(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if IsTerminal(now.State) {
				if strings.Contains(now.Error, "invalid workflow") || strings.Contains(now.Error, "api_url") {
					t.Fatalf("accepted, then refused at run time: %s", now.Error)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("accepted run still %s after 20s", now.State)
			}
		}
	})
}
