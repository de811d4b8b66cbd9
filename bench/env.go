package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfm"
)

// Function time is driven to zero so that wall time is orchestration:
// one nominal paper second is one microsecond of wall time.
const timeScale = 1e-6

// wallSeconds converts a wall-clock duration to the nominal seconds the
// program's options take under timeScale.
func wallSeconds(d time.Duration) float64 { return d.Seconds() / timeScale }

const serviceName = "wfbench"

// env is what every workload runs against: one temp root, one shared
// drive, the in-process serverless platform behind the benchmark's own
// loopback listener, and one HTTP client shared by all iterations so
// that connection set-up stays in setup_s.
type env struct {
	root   string
	drive  *sharedfs.MemDrive
	plat   *serverless.Platform
	front  *frontHandler
	srv    *http.Server
	url    string
	client *http.Client
	rec    *recorder
	refDiv int // the host reference does 1/refDiv of its work
}

// newEnv starts the platform with its pods pre-warmed and fixed in
// number, so that no iteration pays a cold start or a scale-up.
func newEnv(tmpBase string, rec *recorder, sz sizes) (*env, error) {
	if err := os.MkdirAll(tmpBase, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(tmpBase, tempRootPrefix())
	if err != nil {
		return nil, err
	}
	e := &env{root: root, drive: sharedfs.NewMem(), rec: rec, refDiv: sz.RefDivisor}
	e.plat, err = serverless.New(serverless.Options{
		Cluster:        cluster.PaperTestbed(),
		Drive:          e.drive,
		TimeScale:      timeScale,
		InstantScaleUp: true,
		// One autoscaler tick a second of wall time: the default two
		// nominal seconds would tick every two microseconds.
		AutoscalePeriod: wallSeconds(time.Second),
		StableWindow:    wallSeconds(time.Hour),
		InputWait:       wallSeconds(5 * time.Second),
	})
	if err != nil {
		e.close()
		return nil, err
	}
	if _, err := e.plat.Start(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.plat.Apply(serverless.ServiceConfig{
		Name: serviceName, Workers: 32, MinScale: 8, MaxScale: 8,
	}); err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.front = &frontHandler{next: e.plat, rec: rec}
	e.srv = &http.Server{Handler: e.front}
	go e.srv.Serve(ln) // returns when close shuts the server down
	e.url = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &tracingTransport{rec: rec, base: &http.Transport{
		MaxIdleConns:        2048,
		MaxIdleConnsPerHost: 2048,
		IdleConnTimeout:     90 * time.Second,
		WriteBufferSize:     64 << 10,
		ReadBufferSize:      64 << 10,
		DisableCompression:  true,
	}}}
	return e, nil
}

// tempRootPrefix names this process's temp roots, so that a run cut
// short by a signal can find and remove its own.
func tempRootPrefix() string { return fmt.Sprintf("run-%d-", os.Getpid()) }

// close stops everything the env started and removes the temp root. It
// is safe on a partly built env and is called on every exit path.
func (e *env) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.srv != nil {
		// No request is in flight by now; Close also drops connections
		// the client dialled and never used, which Shutdown would wait
		// five seconds for.
		e.srv.Close()
	}
	if e.plat != nil {
		e.plat.Stop()
	}
	os.RemoveAll(e.root)
}

// managerOptions are the wfm options every workload starts from.
func (e *env) managerOptions() wfm.Options {
	return wfm.Options{
		Drive:     e.drive,
		Client:    e.client,
		TimeScale: timeScale,
		InputWait: wallSeconds(5 * time.Second),
	}
}

// frontHandler is the benchmark's http.Handler in front of
// Platform.ServeHTTP. With the recorder on it records a
// serverless.handle span per request; in stub mode it answers with a
// canned response and never reaches the platform, which is the
// "wfm + loopback HTTP" rung of the ladder.
type frontHandler struct {
	next http.Handler
	rec  *recorder
	stub atomic.Bool
}

func (h *frontHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.stub.Load() {
		serveCanned(w, r)
		return
	}
	id, start := h.rec.begin()
	h.next.ServeHTTP(w, r)
	if id != 0 {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		h.rec.end(id, parent, "serverless.handle", start)
	}
}

var cannedResponse = []byte(`{"name":"canned","ok":true,"busySeconds":0,"wallSeconds":0,"outBytes":0}` + "\n")

// serveCanned answers a single-task POST or a batch without decoding
// any task: outputs are expected to be on the drive already.
func serveCanned(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/invoke-batch") {
		body, err := wfbench.ReadBatchBody(r)
		var items []wfbench.BatchItem
		if err == nil {
			items, err = wfbench.DecodeBatchRequestBytes(body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]wfbench.BatchResult, len(items))
		for i := range results {
			results[i] = wfbench.BatchResult{Status: http.StatusOK, Payload: cannedResponse}
		}
		wfbench.WriteBatchResponse(w, results)
		return
	}
	io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(cannedResponse)))
	w.Write(cannedResponse)
}

// invokeURL is the api_url of the one platform service.
func (e *env) invokeURL() string { return fmt.Sprintf("%s/%s/wfbench", e.url, serviceName) }
