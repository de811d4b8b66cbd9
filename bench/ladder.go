package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"wfserverless/internal/dag"
	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// The layer ladder: each rung times one module from outside, through
// its public functions, on the workload's own inputs, on this one
// goroutine unless a rung says otherwise. A rung is repeated for
// sizes.RungBudget and reports the median call.

// timeOp calls fn until the budget is spent, at least once, and returns
// the median nanoseconds per call.
func timeOp(budget time.Duration, fn func()) float64 {
	return timeSelf(budget, func() time.Duration {
		t := time.Now()
		fn()
		return time.Since(t)
	})
}

// timeSelf is timeOp for a rung that times only part of itself.
func timeSelf(budget time.Duration, fn func() time.Duration) float64 {
	var ns []float64
	for start := time.Now(); len(ns) == 0 || time.Since(start) < budget; {
		ns = append(ns, float64(fn()))
	}
	return median(ns)
}

type ladder struct {
	e    *env
	sz   sizes
	wfs  []*wfformat.Workflow
	n    float64 // tasks over all subjects
	out  map[string]float64
	errs []string

	reqs   []*wfbench.Request // a sample of the subjects' tasks
	bodies [][]byte           // their wire form
	inputs []string           // every input of the sample
}

func (l *ladder) fail(rung string, err error) {
	l.errs = append(l.errs, fmt.Sprintf("ladder %s: %v", rung, err))
}

// perTask stores a rung's nanoseconds per call as a per-task figure.
func (l *ladder) perTask(name string, nsPerCall, tasks, unitNs float64) {
	l.out[name] = nsPerCall / tasks / unitNs
}

// runLadder measures every rung that needs no run of the workload. It
// runs after the correctness gate, since its platform rungs add to the
// platform's request count.
func runLadder(e *env, w workload, sz sizes, out map[string]float64) []string {
	l := &ladder{e: e, sz: sz, wfs: w.subjects(), out: out}
	for _, wf := range l.wfs {
		l.n += float64(wf.Len())
	}
	l.sample()
	l.wfformat()
	l.dag()
	l.wfbench()
	l.serverless()
	l.sharedfs()
	l.journal()
	l.memo()
	l.stub(w)
	return l.errs
}

// sample takes an evenly spaced sample of the subjects' tasks and
// renders each as the WfBench request the manager would send.
func (l *ladder) sample() {
	var tasks []*wfformat.Task
	for _, wf := range l.wfs {
		for _, name := range wf.TaskNames() {
			tasks = append(tasks, wf.Tasks[name])
		}
	}
	step := max(len(tasks)/l.sz.SampleTasks, 1)
	for i := 0; i < len(tasks); i += step {
		t := tasks[i]
		arg := t.Command.Arguments[0]
		req := &wfbench.Request{
			Name: arg.Name, PercentCPU: arg.PercentCPU, CPUWork: arg.CPUWork, Cores: t.Cores,
			MemBytes: arg.MemBytes, Out: arg.Out, Inputs: arg.Inputs, Workdir: arg.Workdir,
		}
		body, err := json.Marshal(req)
		if err != nil {
			l.fail("sample", err)
			return
		}
		l.reqs = append(l.reqs, req)
		l.bodies = append(l.bodies, body)
		l.inputs = append(l.inputs, arg.Inputs...)
	}
}

func (l *ladder) wfformat() {
	var docs [][]byte
	for _, wf := range l.wfs {
		b, err := wf.MarshalCompact()
		if err != nil {
			l.fail("wfformat.parse", err)
			return
		}
		docs = append(docs, b)
	}
	l.perTask("wfformat.parse_us_per_task", timeOp(l.sz.RungBudget, func() {
		for _, b := range docs {
			if _, err := wfformat.Parse(b); err != nil {
				l.fail("wfformat.parse", err)
			}
		}
	}), l.n, 1e3)
	l.perTask("wfformat.compile_us_per_task", timeOp(l.sz.RungBudget, func() {
		for _, wf := range l.wfs {
			if _, _, err := wf.Compile(); err != nil {
				l.fail("wfformat.compile", err)
			}
		}
	}), l.n, 1e3)
	l.perTask("wfformat.fingerprint_us_per_task", timeOp(l.sz.RungBudget, func() {
		for _, wf := range l.wfs {
			wfformat.Fingerprint(wf)
		}
	}), l.n, 1e3)
}

// compiled is one subject compiled, shared by the dag and memo rungs.
type compiled struct {
	csr   *dag.CSR
	tasks []*wfformat.Task
}

func (l *ladder) compile() []compiled {
	var out []compiled
	for _, wf := range l.wfs {
		csr, tasks, err := wf.Compile()
		if err != nil {
			l.fail("compile", err)
			return nil
		}
		out = append(out, compiled{csr, tasks})
	}
	return out
}

func (l *ladder) dag() {
	cs := l.compile()
	l.perTask("wfformat.taskfp_us_per_task", timeOp(l.sz.RungBudget, func() {
		for _, c := range cs {
			wfformat.TaskFingerprints(c.csr, c.tasks, sharedfs.ContentAddress)
		}
	}), l.n, 1e3)

	var stack []int32
	drain := func() {
		for _, c := range cs {
			s := dag.NewSchedulerCSR(c.csr)
			stack = append(stack[:0], s.TakeReadyIDs()...)
			for len(stack) > 0 {
				id := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				ready, err := s.CompleteID(id)
				if err != nil {
					l.fail("dag.drain", err)
					return
				}
				stack = append(stack, ready...)
			}
			if !s.Done() {
				l.fail("dag.drain", fmt.Errorf("scheduler not done, %d remaining", s.Remaining()))
			}
		}
	}
	l.perTask("dag.drain_ns_per_task", timeOp(l.sz.RungBudget, drain), l.n, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drain()
	runtime.ReadMemStats(&after)
	l.out["dag.drain_allocs_per_task"] = float64(after.Mallocs-before.Mallocs) / l.n

	// Seeding is timed alone: the schedulers are built outside the timer.
	all := make([][]int32, len(cs))
	for i, c := range cs {
		all[i] = make([]int32, c.csr.Len())
		for id := range all[i] {
			all[i][id] = int32(id)
		}
	}
	l.perTask("dag.seed_ns_per_task", timeSelf(l.sz.RungBudget, func() time.Duration {
		scheds := make([]*dag.Scheduler, len(cs))
		for i, c := range cs {
			scheds[i] = dag.NewSchedulerCSR(c.csr)
		}
		t := time.Now()
		for i, s := range scheds {
			if err := s.SeedCompletedIDs(all[i]); err != nil {
				l.fail("dag.seed", err)
			}
		}
		return time.Since(t)
	}), l.n, 1)
}

func (l *ladder) wfbench() {
	k := float64(len(l.reqs))
	resp := &wfbench.Response{Name: "sample", OK: true, BusySeconds: 0.25, WallSeconds: 0.5, OutBytes: 4096}
	l.perTask("wfbench.codec_ns_per_task", timeOp(l.sz.RungBudget, func() {
		for _, b := range l.bodies {
			var req wfbench.Request
			if err := wfbench.UnmarshalRequest(b, &req); err != nil {
				l.fail("wfbench.codec", err)
				return
			}
			if _, err := wfbench.MarshalResponse(resp); err != nil {
				l.fail("wfbench.codec", err)
				return
			}
		}
	}), k, 1)

	// One batch of up to 512 frames there and back: encode the request,
	// decode it, encode the response, read every frame.
	items := l.batchItems()
	payload, _ := wfbench.MarshalResponse(resp) // cannot fail: checked above
	results := make([]wfbench.BatchResult, len(items))
	for i := range results {
		results[i] = wfbench.BatchResult{Status: http.StatusOK, Payload: payload}
	}
	l.perTask("wfbench.batch_codec_ns_per_task", timeOp(l.sz.RungBudget, func() {
		got, err := wfbench.DecodeBatchRequestBytes(wfbench.EncodeBatchRequest(items))
		if err != nil || len(got) != len(items) {
			l.fail("wfbench.batch_codec", fmt.Errorf("request round trip: %d frames, %v", len(got), err))
			return
		}
		r, err := wfbench.NewBatchResponseReaderBytes(wfbench.EncodeBatchResponse(results))
		if err != nil {
			l.fail("wfbench.batch_codec", err)
			return
		}
		for i := 0; i < r.Len(); i++ {
			if _, err := r.Next(); err != nil {
				l.fail("wfbench.batch_codec", err)
				return
			}
		}
	}), float64(len(items)), 1)

	// Execution alone: one worker, inputs staged, a drive of its own.
	drive := sharedfs.NewMem()
	for _, in := range l.inputs {
		drive.WriteFile(in, 1)
	}
	b, err := wfbench.New(wfbench.Config{Drive: drive, TimeScale: timeScale})
	if err != nil {
		l.fail("wfbench.execute", err)
		return
	}
	worker := b.NewWorker()
	defer worker.Close()
	ctx := context.Background()
	l.perTask("wfbench.execute_ns_per_task", timeOp(l.sz.RungBudget, func() {
		for _, req := range l.reqs {
			if _, err := worker.Execute(ctx, req); err != nil {
				l.fail("wfbench.execute", err)
				return
			}
		}
	}), k, 1)
}

func (l *ladder) batchItems() []wfbench.BatchItem {
	n := min(len(l.bodies), 512)
	items := make([]wfbench.BatchItem, n)
	for i := range items {
		items[i] = wfbench.BatchItem{Body: l.bodies[i]}
	}
	return items
}

// serverless times the platform without the manager: in process, in
// process batched, and over its HTTP ingress from a plain client. The
// drive still holds the last iteration's files, so inputs are there.
func (l *ladder) serverless() {
	ctx := context.Background()
	k := float64(len(l.reqs))
	l.perTask("serverless.invoke_us_per_task", timeOp(l.sz.RungBudget, func() {
		for _, req := range l.reqs {
			if _, err := l.e.plat.Invoke(ctx, serviceName, req); err != nil {
				l.fail("serverless.invoke", err)
				return
			}
		}
	}), k, 1e3)

	items := l.batchItems()
	l.perTask("serverless.invoke_batch_us_per_task", timeOp(l.sz.RungBudget, func() {
		for _, r := range l.e.plat.InvokeBatch(ctx, serviceName, items) {
			if r.Status != http.StatusOK {
				l.fail("serverless.invoke_batch", fmt.Errorf("frame status %d: %s", r.Status, r.Payload))
				return
			}
		}
	}), float64(len(items)), 1e3)

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	url := l.e.invokeURL()
	l.perTask("serverless.http_us_per_task", timeOp(l.sz.RungBudget, func() {
		for _, body := range l.bodies {
			res, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				l.fail("serverless.http", err)
				return
			}
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				l.fail("serverless.http", fmt.Errorf("status %d", res.StatusCode))
				return
			}
		}
	}), k, 1e3)
}

func (l *ladder) sharedfs() {
	drive := sharedfs.NewMem()
	var outs []string
	for _, req := range l.reqs {
		for name := range req.Out {
			outs = append(outs, name)
		}
	}
	l.perTask("sharedfs.write_ns", timeOp(l.sz.RungBudget, func() {
		for _, name := range outs {
			drive.WriteFile(name, 4096)
		}
	}), float64(len(outs)), 1)
	l.perTask("sharedfs.allexist_ns_per_name", timeOp(l.sz.RungBudget, func() {
		if !sharedfs.AllExist(drive, outs) {
			l.fail("sharedfs.allexist", fmt.Errorf("written files are missing"))
		}
	}), float64(len(outs)), 1)
	l.perTask("sharedfs.contenthash_ns", timeOp(l.sz.RungBudget, func() {
		for _, name := range outs {
			drive.ContentHash(name)
		}
	}), float64(len(outs)), 1)
}

func (l *ladder) journal() {
	// Open and close of an empty journal: what each small run pays
	// before and after its records.
	i := 0
	l.out["journal.open_close_ms"] = timeOp(l.sz.RungBudget, func() {
		i++
		j, err := journal.Open(filepath.Join(l.e.root, fmt.Sprintf("ladder-oc-%d", i)), journal.Options{Sync: journal.SyncGroup})
		if err == nil {
			err = j.Close()
		}
		if err != nil {
			l.fail("journal.open_close", err)
		}
	}) / 1e6

	j, err := journal.Open(filepath.Join(l.e.root, "ladder-append"), journal.Options{Sync: journal.SyncGroup})
	if err != nil {
		l.fail("journal.append", err)
		return
	}
	record := make([]byte, 48) // about the manager's task-completed record
	const batch = 4096
	l.perTask("journal.append_ns_per_record", timeOp(l.sz.RungBudget, func() {
		for i := 0; i < batch; i++ {
			if err := j.Append(1, record); err != nil {
				l.fail("journal.append", err)
				return
			}
		}
	}), batch, 1)
	if err := j.Close(); err != nil {
		l.fail("journal.append", err)
	}
}

func (l *ladder) memo() {
	cs := l.compile()
	var fps []wfformat.Hash
	for _, c := range cs {
		fps = append(fps, wfformat.TaskFingerprints(c.csr, c.tasks, sharedfs.ContentAddress)...)
		if len(fps) >= l.sz.SampleTasks {
			fps = fps[:l.sz.SampleTasks]
			break
		}
	}
	outs := []memo.Output{{Name: "out_sample_task_000001", Size: 4096, Hash: 0x9e3779b97f4a7c15}}
	k := float64(len(fps))
	// Put is timed on a new file each time: a second Put of the same
	// entry is a no-op.
	i := 0
	var path string
	l.perTask("memo.put_ns", timeSelf(l.sz.RungBudget, func() time.Duration {
		i++
		path = filepath.Join(l.e.root, fmt.Sprintf("ladder-memo-%d", i))
		c, err := memo.Open(path)
		if err != nil {
			l.fail("memo.put", err)
			return 0
		}
		t := time.Now()
		for _, fp := range fps {
			c.Put(fp, outs) // a failed append is sticky and surfaces at Close
		}
		d := time.Since(t)
		if err := c.Close(); err != nil {
			l.fail("memo.put", err)
		}
		return d
	}), k, 1)
	var cache *memo.Cache
	l.out["memo.open_ms"] = timeOp(l.sz.RungBudget, func() {
		if cache != nil {
			cache.Close()
		}
		var err error
		if cache, err = memo.Open(path); err != nil {
			l.fail("memo.open", err)
		}
	}) / 1e6
	if cache == nil {
		return
	}
	defer cache.Close()
	if info, err := os.Stat(path); err == nil && cache.Len() > 0 {
		l.out["memo.bytes_per_task"] = float64(info.Size()) / float64(cache.Len())
	}
	l.perTask("memo.lookup_ns", timeOp(l.sz.RungBudget, func() {
		for _, fp := range fps {
			if _, ok := cache.Lookup(fp); !ok {
				l.fail("memo.lookup", fmt.Errorf("stored fingerprint not found"))
				return
			}
		}
	}), k, 1)
}

// stub is the "wfm + loopback HTTP" rung: Manager.Run with the
// workload's own scheduling and batching, against the benchmark's
// canned-response handler in place of the platform. Outputs are on the
// drive from the last iteration, so input checks pass.
func (l *ladder) stub(w workload) {
	l.e.front.stub.Store(true)
	defer l.e.front.stub.Store(false)
	m, err := wfm.New(w.bareOptions())
	if err != nil {
		l.fail("wfm.stub", err)
		return
	}
	l.perTask("wfm.stub_us_per_task", timeOp(2*l.sz.RungBudget, func() {
		for _, wf := range l.wfs {
			res, err := m.Run(context.Background(), wf)
			if err != nil || len(res.Failed) > 0 {
				l.fail("wfm.stub", fmt.Errorf("run of %s: %v", wf.Name, err))
				return
			}
		}
	}), l.n, 1e3)
}

// bareRuns is what bareManagers saw.
type bareRuns struct {
	tasksPerS float64
	results   []*wfm.Result // one per pool workflow
	runs      int64
	journal   journal.Stats // summed over the runs
}

// bareManagers runs the service's pool through plain wfm.Managers, each
// run with its own on-disk journal as under wfmd, on as many goroutines
// as the service has client goroutines, for d and at least once over
// the pool. What the service adds is the difference to its own
// tasks_per_s; the journals' counters stand in for the ones wfmd keeps
// to itself.
func bareManagers(e *env, pool []*wfformat.Workflow, opts wfm.Options, d time.Duration) (*bareRuns, error) {
	var mu sync.Mutex
	var firstErr error
	out := &bareRuns{}
	var tasks int64
	var wg sync.WaitGroup
	start := time.Now()
	share := len(pool) / len(tenants)
	one := func(g, i int) error {
		j, err := journal.Open(filepath.Join(e.root, fmt.Sprintf("bare-%d-%d", g, i)), journal.Options{Sync: journal.SyncGroup})
		if err != nil {
			return err
		}
		o := opts
		o.Journal = j
		var res *wfm.Result
		m, err := wfm.New(o)
		if err == nil {
			res, err = m.Run(context.Background(), pool[g*share+i%share])
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		st := j.Stats()
		mu.Lock()
		defer mu.Unlock()
		tasks += completedTasks(res)
		out.runs++
		out.journal.Appends += st.Appends
		out.journal.Bytes += st.Bytes
		out.journal.Syncs += st.Syncs
		if i < share {
			out.results = append(out.results, res)
		}
		return nil
	}
	for g := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Since(start) < d || i < share; i++ {
				if err := one(g, i); err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	out.tasksPerS = float64(tasks) / time.Since(start).Seconds()
	return out, firstErr
}

// taskTimings are the manager's own per-task offsets, from
// Result.Tasks: ready to start (queue and input wait) and start to end
// (the invocation as the manager sees it), with attempts per task.
// Tasks served from the memo cache were never queued or invoked.
func taskTimings(results []*wfm.Result, out map[string]float64) {
	var wait, run []float64
	var attempts, tasks float64
	for _, res := range results {
		for name, tr := range res.Tasks {
			if name == wfm.HeaderName || name == wfm.TailName || tr.Memoized || tr.Recovered {
				continue
			}
			wait = append(wait, float64(tr.QueueWait())/1e3)
			run = append(run, float64(tr.End-tr.Start)/1e3)
			attempts += float64(tr.Attempts)
			tasks++
		}
	}
	out["wfm.queue_wait_us_p50"] = median(wait)
	out["wfm.task_us_p50"] = median(run)
	if tasks > 0 {
		out["wfm.attempts_per_task"] = attempts / tasks
	}
}
