package wfbench

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/sharedfs"
)

func testBench(t *testing.T, cfg Config) *Bench {
	t.Helper()
	if cfg.Drive == nil {
		cfg.Drive = sharedfs.NewMem()
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 0.001
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func req(name string) *Request {
	return &Request{
		Name:       name,
		PercentCPU: 0.9,
		CPUWork:    100,
		MemBytes:   1 << 20,
		Out:        map[string]int64{name + "_out": 64},
	}
}

func TestRequestValidate(t *testing.T) {
	cases := []struct {
		mutate func(*Request)
		ok     bool
	}{
		{func(r *Request) {}, true},
		{func(r *Request) { r.Name = "" }, false},
		{func(r *Request) { r.PercentCPU = -0.1 }, false},
		{func(r *Request) { r.PercentCPU = 1.1 }, false},
		{func(r *Request) { r.CPUWork = -1 }, false},
		{func(r *Request) { r.MemBytes = -1 }, false},
		{func(r *Request) { r.Out["x"] = -5 }, false},
	}
	for i, c := range cases {
		r := req("t")
		c.mutate(r)
		err := r.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestDurations(t *testing.T) {
	r := &Request{CPUWork: 200, PercentCPU: 0.5}
	busy, wall := r.Durations()
	if busy != 2 || wall != 4 {
		t.Fatalf("busy=%v wall=%v, want 2,4", busy, wall)
	}
	// duty floor prevents divide-by-zero blowups
	r.PercentCPU = 0
	_, wall = r.Durations()
	if wall != 40 {
		t.Fatalf("floored wall = %v, want 40", wall)
	}
}

func TestExecuteWritesOutputs(t *testing.T) {
	drive := sharedfs.NewMem()
	b := testBench(t, Config{Drive: drive})
	w := b.NewWorker()
	resp, err := w.Execute(context.Background(), req("f1"))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.OutBytes != 64 {
		t.Fatalf("OutBytes = %d", resp.OutBytes)
	}
	size, err := drive.Stat("f1_out")
	if err != nil || size != 64 {
		t.Fatalf("output on drive: size=%d err=%v", size, err)
	}
	if resp.BusySeconds != 1 {
		t.Fatalf("BusySeconds = %v", resp.BusySeconds)
	}
}

func TestExecuteMissingInputFailsFast(t *testing.T) {
	b := testBench(t, Config{Drive: sharedfs.NewMem()})
	w := b.NewWorker()
	r := req("f")
	r.Inputs = []string{"nope.txt"}
	resp, err := w.Execute(context.Background(), r)
	if err == nil {
		t.Fatal("missing input accepted")
	}
	if resp.OK || !strings.Contains(resp.Error, "nope.txt") {
		t.Fatalf("resp = %+v", resp)
	}
}

// existsCountingDrive counts Exists calls so tests can prove the
// content-address fast path verifies inputs from the hash index alone.
type existsCountingDrive struct {
	*sharedfs.MemDrive
	mu     sync.Mutex
	exists int
}

func (d *existsCountingDrive) Exists(name string) bool {
	d.mu.Lock()
	d.exists++
	d.mu.Unlock()
	return d.MemDrive.Exists(name)
}

// plainDrive hides MemDrive's Hasher implementation, modelling a drive
// without content addressing.
type plainDrive struct{ inner *sharedfs.MemDrive }

func (d plainDrive) WriteFile(name string, size int64) error { return d.inner.WriteFile(name, size) }
func (d plainDrive) Stat(name string) (int64, error)         { return d.inner.Stat(name) }
func (d plainDrive) Exists(name string) bool                 { return d.inner.Exists(name) }
func (d plainDrive) List() []string                          { return d.inner.List() }
func (d plainDrive) Remove(name string) error                { return d.inner.Remove(name) }
func (d plainDrive) TotalBytes() int64                       { return d.inner.TotalBytes() }

// TestExecuteContentAddressFastPath: on a Hasher drive, single-task
// input verification resolves through the content-address index and
// never falls back to per-file existence scans.
func TestExecuteContentAddressFastPath(t *testing.T) {
	drive := &existsCountingDrive{MemDrive: sharedfs.NewMem()}
	drive.WriteFile("a.txt", 10)
	drive.WriteFile("b.txt", 20)
	b := testBench(t, Config{Drive: drive})
	w := b.NewWorker()
	r := req("f")
	r.Inputs = []string{"a.txt", "b.txt"}
	resp, err := w.Execute(context.Background(), r)
	if err != nil || !resp.OK {
		t.Fatalf("execute: %v (resp %+v)", err, resp)
	}
	drive.mu.Lock()
	defer drive.mu.Unlock()
	if drive.exists != 0 {
		t.Fatalf("fast path made %d Exists calls, want 0", drive.exists)
	}
}

// TestExecutePlainDriveStillVerifies: a drive without ContentHash keeps
// the original existence-scan behaviour — present inputs pass, absent
// inputs fail.
func TestExecutePlainDriveStillVerifies(t *testing.T) {
	inner := sharedfs.NewMem()
	inner.WriteFile("a.txt", 10)
	b := testBench(t, Config{Drive: plainDrive{inner}})
	w := b.NewWorker()
	r := req("f")
	r.Inputs = []string{"a.txt"}
	if resp, err := w.Execute(context.Background(), r); err != nil || !resp.OK {
		t.Fatalf("present input rejected: %v (resp %+v)", err, resp)
	}
	r2 := req("g")
	r2.Inputs = []string{"gone.txt"}
	if _, err := w.Execute(context.Background(), r2); err == nil {
		t.Fatal("absent input accepted on plain drive")
	}
}

func TestExecuteWaitsForLateInput(t *testing.T) {
	drive := sharedfs.NewMem()
	b := testBench(t, Config{Drive: drive, InputWait: 500 * time.Millisecond})
	w := b.NewWorker()
	r := req("f")
	r.Inputs = []string{"late.txt"}
	go func() {
		time.Sleep(10 * time.Millisecond)
		drive.WriteFile("late.txt", 1)
	}()
	if _, err := w.Execute(context.Background(), r); err != nil {
		t.Fatalf("late input not awaited: %v", err)
	}
}

func TestExecuteInvalidRequest(t *testing.T) {
	b := testBench(t, Config{})
	w := b.NewWorker()
	bad := req("f")
	bad.PercentCPU = 2
	if _, err := w.Execute(context.Background(), bad); err == nil {
		t.Fatal("invalid request executed")
	}
}

func TestExecuteRegistersUsage(t *testing.T) {
	node := cluster.NewNode(cluster.NodeSpec{Name: "n", Cores: 8, MemBytes: 1 << 30})
	drive := sharedfs.NewMem()
	b := testBench(t, Config{Drive: drive, Usage: node, TimeScale: 0.3})
	w := b.NewWorker()
	r := req("f")
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Execute(context.Background(), r)
	}()
	// Mid-execution the node must show the busy duty and the ballast.
	// Poll rather than sleep a fixed amount: the test machine may be
	// heavily loaded.
	deadline := time.Now().Add(2 * time.Second)
	var u cluster.Usage
	for time.Now().Before(deadline) {
		u = node.Snapshot()
		if u.BusyCores == 0.9 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if u.BusyCores != 0.9 {
		t.Fatalf("mid-run BusyCores = %v, want 0.9", u.BusyCores)
	}
	if u.UsedMem != 1<<20 {
		t.Fatalf("mid-run UsedMem = %d", u.UsedMem)
	}
	<-done
	u = node.Snapshot()
	if u.BusyCores != 0 || u.UsedMem != 0 {
		t.Fatalf("post-run usage leaked: %+v", u)
	}
}

func TestKeepMemPersistsBallast(t *testing.T) {
	node := cluster.NewNode(cluster.NodeSpec{Name: "n", Cores: 8, MemBytes: 1 << 30})
	b := testBench(t, Config{Drive: sharedfs.NewMem(), Usage: node, KeepMem: true})
	w := b.NewWorker()
	if _, err := w.Execute(context.Background(), req("f1")); err != nil {
		t.Fatal(err)
	}
	if got := node.Snapshot().UsedMem; got != 1<<20 {
		t.Fatalf("ballast not kept: UsedMem = %d", got)
	}
	// Larger request grows the ballast; smaller one does not shrink it.
	big := req("f2")
	big.MemBytes = 4 << 20
	w.Execute(context.Background(), big)
	if got := node.Snapshot().UsedMem; got != 4<<20 {
		t.Fatalf("ballast not grown: %d", got)
	}
	small := req("f3")
	small.MemBytes = 1 << 10
	w.Execute(context.Background(), small)
	if got := node.Snapshot().UsedMem; got != 4<<20 {
		t.Fatalf("ballast shrank: %d", got)
	}
	if w.BallastBytes() != 4<<20 {
		t.Fatalf("BallastBytes = %d", w.BallastBytes())
	}
	w.Close()
	if got := node.Snapshot().UsedMem; got != 0 {
		t.Fatalf("Close leaked ballast: %d", got)
	}
	w.Close() // idempotent
}

func TestExecuteCancelled(t *testing.T) {
	b := testBench(t, Config{TimeScale: 10}) // long run
	w := b.NewWorker()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := w.Execute(ctx, req("f"))
	if err == nil {
		t.Fatal("cancelled execution succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation did not interrupt the engine")
	}
}

func TestBurnEngineDutyAndDuration(t *testing.T) {
	e := BurnEngine{Period: time.Millisecond}
	start := time.Now()
	if err := e.Run(context.Background(), 30*time.Millisecond, 0.5); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 25*time.Millisecond || elapsed > 300*time.Millisecond {
		t.Fatalf("elapsed = %v, want ~30ms", elapsed)
	}
	// duty outside [0,1] is clamped rather than panicking
	if err := e.Run(context.Background(), time.Millisecond, 7); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), time.Millisecond, -1); err != nil {
		t.Fatal(err)
	}
}

func TestSimEngineZeroWall(t *testing.T) {
	if err := (SimEngine{}).Run(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil drive accepted")
	}
	if _, err := New(Config{Drive: sharedfs.NewMem(), TimeScale: -1}); err == nil {
		t.Fatal("negative TimeScale accepted")
	}
}

func TestServicePoolBoundsConcurrency(t *testing.T) {
	node := cluster.NewNode(cluster.NodeSpec{Name: "n", Cores: 64, MemBytes: 1 << 40})
	b := testBench(t, Config{Drive: sharedfs.NewMem(), Usage: node, TimeScale: 0.05})
	s, err := NewService(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var maxActive int64
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Invoke(context.Background(), "", req("f"+string(rune('0'+i))))
			mu.Lock()
			if a := s.Active(); a > maxActive {
				maxActive = a
			}
			mu.Unlock()
		}(i)
	}
	// sample Active during the run
	for j := 0; j < 20; j++ {
		mu.Lock()
		if a := s.Active(); a > maxActive {
			maxActive = a
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	if maxActive > 2 {
		t.Fatalf("active = %d exceeded pool of 2", maxActive)
	}
	if s.Requests() != 8 {
		t.Fatalf("Requests = %d", s.Requests())
	}
}

func TestServiceRejectsZeroWorkers(t *testing.T) {
	b := testBench(t, Config{})
	if _, err := NewService(b, 0); err == nil {
		t.Fatal("0 workers accepted")
	}
}

func TestServiceHTTP(t *testing.T) {
	drive := sharedfs.NewMem()
	b := testBench(t, Config{Drive: drive})
	s, _ := NewService(b, 2)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// healthz
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil || hr.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", hr, err)
	}
	hr.Body.Close()

	// valid invocation, mirroring the paper's curl example
	body, _ := json.Marshal(req("split_fasta_00000001"))
	pr, err := http.Post(srv.URL+"/wfbench", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != 200 {
		t.Fatalf("status = %d", pr.StatusCode)
	}
	var resp Response
	if err := json.NewDecoder(pr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Name != "split_fasta_00000001" {
		t.Fatalf("resp = %+v", resp)
	}
	if !drive.Exists("split_fasta_00000001_out") {
		t.Fatal("output missing from drive")
	}
}

func TestServiceClose(t *testing.T) {
	node := cluster.NewNode(cluster.NodeSpec{Name: "n", Cores: 8, MemBytes: 1 << 30})
	b := testBench(t, Config{Drive: sharedfs.NewMem(), Usage: node, KeepMem: true})
	s, _ := NewService(b, 3)
	s.Invoke(context.Background(), "", req("a"))
	if node.Snapshot().UsedMem == 0 {
		t.Fatal("expected ballast before Close")
	}
	s.Close()
	if got := node.Snapshot().UsedMem; got != 0 {
		t.Fatalf("Close leaked %d bytes", got)
	}
	// service still usable after Close
	if _, err := s.Invoke(context.Background(), "", req("b")); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDurationsMonotone(t *testing.T) {
	f := func(workRaw, dutyRaw uint16) bool {
		work := float64(workRaw)
		duty := float64(dutyRaw%101) / 100
		r := &Request{CPUWork: work, PercentCPU: duty}
		busy, wall := r.Durations()
		if busy < 0 || wall < 0 {
			return false
		}
		// wall >= busy always (duty <= 1)
		return wall >= busy-1e-9 && math.Abs(busy-work/100) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
