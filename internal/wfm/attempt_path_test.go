package wfm

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/health"
	"wfserverless/internal/journal"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// scriptedEndpoint answers by task name and per-name call count, on the
// single-task and the batch surface alike: "a500" gets one 500, "b429"
// one 429 with a Retry-After, "chang" hangs its first call for hang,
// anything under /dead/ always gets a 500, and everything else takes
// 5ms and succeeds.
type scriptedEndpoint struct {
	drive sharedfs.Drive
	hang  time.Duration
	mu    sync.Mutex
	calls map[string]int
	// posts counts HTTP requests by surface: [0] single-task, [1] batch.
	posts [2]int
}

// answer returns one task's scripted status, Retry-After hint and how
// long the endpoint sits on it first.
func (s *scriptedEndpoint) answer(path string, req *wfbench.Request) (status int, retryAfterMS int64, wait time.Duration) {
	s.mu.Lock()
	s.calls[req.Name]++
	first := s.calls[req.Name] == 1
	s.mu.Unlock()
	switch {
	case strings.HasPrefix(path, "/dead/"):
		return http.StatusInternalServerError, 0, 0
	case req.Name == "a500" && first:
		return http.StatusInternalServerError, 0, 0
	case req.Name == "b429" && first:
		return http.StatusTooManyRequests, 20, 0
	case req.Name == "chang" && first:
		return http.StatusOK, 0, s.hang
	}
	return http.StatusOK, 0, 5 * time.Millisecond
}

func (s *scriptedEndpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var bodies [][]byte
	batch := strings.HasSuffix(r.URL.Path, "/invoke-batch")
	s.mu.Lock()
	if batch {
		s.posts[1]++
	} else {
		s.posts[0]++
	}
	s.mu.Unlock()
	if batch {
		raw, err := wfbench.ReadBatchBody(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		items, err := wfbench.DecodeBatchRequestBytes(raw)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, it := range items {
			bodies = append(bodies, it.Body)
		}
	} else {
		var raw json.RawMessage
		if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		bodies = [][]byte{raw}
	}
	results := make([]wfbench.BatchResult, len(bodies))
	var wait time.Duration
	for i, b := range bodies {
		var req wfbench.Request
		if err := json.Unmarshal(b, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		status, ra, d := s.answer(r.URL.Path, &req)
		if d > wait {
			wait = d
		}
		results[i] = wfbench.BatchResult{Status: status, RetryAfterMillis: ra, Payload: []byte("scripted failure")}
		if status == http.StatusOK {
			for name, size := range req.Out {
				s.drive.WriteFile(name, size)
			}
			results[i].Payload, _ = json.Marshal(&wfbench.Response{Name: req.Name, OK: true})
		}
	}
	select {
	case <-r.Context().Done():
		return
	case <-time.After(wait):
	}
	if batch {
		wfbench.WriteBatchResponse(w, results)
		return
	}
	res := results[0]
	if res.Status != http.StatusOK {
		if res.RetryAfterMillis > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%g", float64(res.RetryAfterMillis)/1000))
		}
		http.Error(w, string(res.Payload), res.Status)
		return
	}
	w.Write(append(res.Payload, '\n'))
}

// TestAttemptPathComposition runs one workflow against the scripted
// endpoint under every combination of the attempt path's layers and
// pins what each combination must observe — attempts per task, breaker
// transitions, straggler flags and speculation counts, how often the
// endpoint was really called, and the journal's record kinds, all as
// recorded before the path became a composed chain. Each layer shows in
// what it alone causes, so a cell also proves the chain holds exactly
// the enabled layers: the surface the POSTs arrive on (transport), the
// straggler flag and the backup (health), the shed attempt (breaker).
// Every cell's journal, flight recorder and monitor are also held to
// checkTransitions, and a health cell's recorder tuples to the golden
// written before the run's transitions were one stream.
func TestAttemptPathComposition(t *testing.T) {
	type cell struct {
		health, speculate, breaker, batch bool
	}
	var cells []cell
	for _, h := range []cell{{}, {health: true}, {health: true, speculate: true}} {
		for _, brk := range []bool{false, true} {
			for _, bat := range []bool{false, true} {
				cells = append(cells, cell{h.health, h.speculate, brk, bat})
			}
		}
	}
	for _, c := range cells {
		c := c
		name := fmt.Sprintf("health=%t,speculate=%t,breaker=%t,batch=%t", c.health, c.speculate, c.breaker, c.batch)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			drive := sharedfs.NewMem()
			ep := &scriptedEndpoint{drive: drive, calls: map[string]int{}}
			if c.health {
				// 8x the straggler threshold (factor 20 over a ~5ms median),
				// so a loaded host neither misses the flag nor adds one.
				ep.hang = 800 * time.Millisecond
			}
			srv := httptest.NewServer(ep)
			defer srv.Close()
			mainURL, deadURL := srv.URL+"/main/wfbench", srv.URL+"/dead/wfbench"

			w := wfformat.New("composition")
			level1 := []string{"f1", "f2", "f3", "f4", "a500", "b429"}
			var outs []string
			for _, n := range level1 {
				synthAdd(t, w, synthTask(n, mainURL, nil))
				outs = append(outs, "out_"+n)
			}
			synthAdd(t, w, synthTask("dead", deadURL, nil))
			synthAdd(t, w, synthTask("chang", mainURL, outs))
			for _, n := range level1 {
				synthLink(t, w, n, "chang")
			}

			dir := t.TempDir()
			j, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{
				Drive:           drive,
				TimeScale:       1,
				InputWait:       5,
				Scheduling:      ScheduleDependency,
				ContinueOnError: true,
				Retries:         5,
				Journal:         j,
				Breaker: BreakerOptions{
					Enabled: c.breaker, Window: 10, FailureThreshold: 0.75, MinSamples: 4, Cooldown: 0.05,
				},
				Batching: BatchOptions{Enabled: c.batch, MaxTasks: 16, Linger: 0.005},
				Monitor:  NewMonitor(),
			}
			var rec *health.FlightRecorder
			if c.health {
				rec = health.NewFlightRecorder(0)
				opts.Health = &HealthOptions{StragglerFactor: 20, MinSamples: 4, SpeculativeRetry: c.speculate, Recorder: rec}
			}
			m, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(context.Background(), w)
			if err == nil || !reflect.DeepEqual(res.Failed, []string{"dead"}) {
				t.Fatalf("Run err = %v, failed = %v; want exactly dead to fail", err, res.Failed)
			}
			if cerr := j.Close(); cerr != nil {
				t.Fatal(cerr)
			}

			attempts := map[string]int{}
			for name, tr := range res.Tasks {
				if name != HeaderName && name != TailName {
					attempts[name] = tr.Attempts
				}
			}
			wantAttempts := map[string]int{"f1": 1, "f2": 1, "f3": 1, "f4": 1, "a500": 2, "b429": 2, "chang": 1, "dead": 6}
			if !reflect.DeepEqual(attempts, wantAttempts) {
				t.Errorf("attempts = %v, want %v", attempts, wantAttempts)
			}

			var flips []string
			for _, bt := range res.Breakers {
				flips = append(flips, strings.TrimPrefix(bt.Endpoint, srv.URL)+" "+bt.From+"->"+bt.To)
			}
			var wantFlips []string
			if c.breaker {
				wantFlips = []string{
					"/dead/wfbench closed->open", "/dead/wfbench open->half-open", "/dead/wfbench half-open->open",
				}
			}
			if !reflect.DeepEqual(flips, wantFlips) {
				t.Errorf("breaker transitions = %v, want %v", flips, wantFlips)
			}

			// What reached the endpoint: the open breaker sheds one of
			// dead's six attempts, speculation adds chang's backup.
			wantCalls := map[string]int{"f1": 1, "f2": 1, "f3": 1, "f4": 1, "a500": 2, "b429": 2, "chang": 1, "dead": 6}
			if c.breaker {
				wantCalls["dead"] = 5
			}
			if c.speculate {
				wantCalls["chang"] = 2
			}
			ep.mu.Lock()
			if !reflect.DeepEqual(ep.calls, wantCalls) {
				t.Errorf("endpoint calls = %v, want %v", ep.calls, wantCalls)
			}
			if single, batched := ep.posts[0], ep.posts[1]; (single > 0) == c.batch || (batched > 0) != c.batch {
				t.Errorf("POSTs = %d single-task, %d batch with batching %t", single, batched, c.batch)
			}
			ep.mu.Unlock()

			switch h := res.Health; {
			case !c.health:
				if h != nil {
					t.Errorf("Result.Health = %+v with the health plane off", h)
				}
			default:
				var flagged []string
				for _, s := range h.Stragglers {
					flagged = append(flagged, s.Task)
				}
				if !reflect.DeepEqual(flagged, []string{"chang"}) {
					t.Errorf("stragglers = %v, want [chang]", flagged)
				}
				want := int64(0)
				if c.speculate {
					want = 1
				}
				if h.SpeculativeRetries != want || h.SpeculativeWins != want {
					t.Errorf("speculation = %d launched / %d won, want %d / %d",
						h.SpeculativeRetries, h.SpeculativeWins, want, want)
				}
			}

			sum, err := ReadRunJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			wantKinds := map[string]int{
				"run-header": 1, "task-started": 8, "task-completed": 7, "task-failed": 1, "run-end": 1,
			}
			if !reflect.DeepEqual(sum.EventCounts, wantKinds) {
				t.Errorf("journal record kinds = %v, want %v", sum.EventCounts, wantKinds)
			}

			checkTransitions(t, dir, w, rec, opts.Monitor)
			if rec != nil {
				checkGolden(t, filepath.Join("testdata", "recorder", name+".golden"), recorderTuples(rec.Events(), srv.URL))
			}
		})
	}
}
