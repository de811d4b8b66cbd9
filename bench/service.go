package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfserverless/internal/journal"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
	"wfserverless/internal/wfmd"
)

const (
	outstandingPerTenant = 4
	pollInterval         = time.Millisecond
	taskSlots            = 8
	// runsPerSecond sizes a timed section: the service runs a fixed
	// number of runs, seconds x runsPerSecond, not for a fixed time,
	// because wfmd keeps every finished run in memory and peak_rss_mb
	// would otherwise grow with the throughput it is measured beside.
	// The reference host completes about this many a second.
	runsPerSecond = 115
	// chunkRuns is how many runs are submitted between two readings of
	// the host reference: the closed loop cannot be read around while
	// it runs, so a section is a series of chunks, each let finish,
	// about a second long.
	chunkRuns = 150
)

var tenants = []wfmd.TenantConfig{{Name: "heavy", Weight: 3}, {Name: "light", Weight: 1}}

// serviceRuns is the multi-tenant path: an in-process wfmd.Server
// behind its Handler on loopback, two tenants, and one client goroutine
// per tenant keeping a fixed number of small runs outstanding.
type serviceRuns struct {
	e      *env
	sz     sizes
	pool   []*wfformat.Workflow
	bodies [][]byte

	srv     *wfmd.Server
	httpSrv *http.Server
	url     string
	api     *http.Client // the tenants' client, shared by all sections

	runs []serviceRun // every run submitted since set-up, for the gate

	submitMS []float64
	// Wall time and runs of the untraced sections, for wfmd.runs_per_s.
	wall         time.Duration
	untracedRuns int
}

type serviceRun struct {
	id     string
	pool   int
	tenant string
	runMS  float64
	state  string
}

func (s *serviceRuns) generate(seed int64, sz sizes) error {
	pool, err := servicePool(seed, sz, s.e.invokeURL())
	if err != nil {
		return err
	}
	s.pool, s.sz = pool, sz
	for _, w := range pool {
		b, err := w.MarshalCompact()
		if err != nil {
			return err
		}
		s.bodies = append(s.bodies, b)
	}
	s.srv, err = wfmd.New(wfmd.Config{
		DataDir:     filepath.Join(s.e.root, "wfmd"),
		Manager:     s.bareOptions(),
		Tenants:     tenants,
		TaskSlots:   taskSlots,
		JournalSync: journal.SyncGroup,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	go s.httpSrv.Serve(ln) // returns when close shuts the server down
	s.url = "http://" + ln.Addr().String()
	s.api = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	return nil
}

func (s *serviceRuns) close() {
	if s.api != nil {
		s.api.CloseIdleConnections()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.srv != nil {
		s.srv.Stop()
	}
}

func (s *serviceRuns) subjects() []*wfformat.Workflow { return s.pool }

// timed is the limit of the whole timed section, a number of runs:
// whole chunks, unless the section is shorter than one.
func (s *serviceRuns) timed(seconds float64) limit {
	runs := int(seconds * runsPerSecond)
	if runs > chunkRuns {
		runs -= runs % chunkRuns
	}
	return limit{iters: max(runs, 2*outstandingPerTenant)}
}

func (s *serviceRuns) unit(seconds float64) limit {
	return limit{iters: min(max(int(seconds*runsPerSecond/13), 2*outstandingPerTenant), chunkRuns)}
}

func (s *serviceRuns) bareOptions() wfm.Options {
	opts := s.e.managerOptions()
	opts.Scheduling = wfm.ScheduleDependency
	opts.MaxParallel = 8
	return opts
}

// firstRun sends as many runs through the service as the pool holds.
func (s *serviceRuns) firstRun() error {
	m := s.chunk(len(s.pool), false, hostFactors{1, 1})
	if m.failed > 0 {
		return fmt.Errorf("first pass over the pool: %d of %d operations failed", m.failed, m.attempted)
	}
	return nil
}

// measure runs l.iters runs in chunks, reading the host reference
// before each. Like an iteration of the other
// workloads a chunk starts from a collected heap: wfmd keeps every
// finished run, so the heap grows through a section, collections get
// rarer and longer, and left alone one lands in some chunks and not in
// others, which then take twice as long.
func (s *serviceRuns) measure(l limit, traced bool) *measurement {
	m := &measurement{}
	for left := l.iters; left > 0 && m.err == nil; left -= chunkRuns {
		runtime.GC()
		refs, err := hostRef(3, s.e.refDiv)
		if err != nil {
			m.err = err
			break
		}
		m.refs = append(m.refs, refs...)
		m.add(s.chunk(min(left, chunkRuns), traced, factorsOf(refs)))
	}
	return m
}

// chunk runs the two tenants' closed loops until runs runs have been
// submitted between them and every one of them has finished. It is one
// segment: its ramp and its tail are part of it, the same on any tree,
// and its time to result is the median of its runs'. Meanwhile this
// goroutine only waits. host is what the readings before it gave.
func (s *serviceRuns) chunk(runs int, traced bool, host hostFactors) *measurement {
	rec := s.e.rec
	rec.on.Store(traced)
	defer rec.on.Store(false)
	itID, itStart := rec.begin()
	if itID != 0 {
		rec.trace.Store(itID)
	}

	m := &measurement{}
	var submitted atomic.Int64 // runs submitted, by both tenants
	logs := make([]clientLog, len(tenants))
	var wg sync.WaitGroup
	before := takeProbe()
	for i, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.client(i, t.Name, int64(runs), &submitted, &logs[i])
		}()
	}
	wg.Wait()
	after := takeProbe()
	rec.end(itID, 0, "bench.iteration", itStart)
	if !traced {
		s.wall += after.at.Sub(before.at)
	}

	var done int64
	var runMS []float64
	for _, lg := range logs {
		done += lg.done
		for _, r := range lg.runs {
			runMS = append(runMS, r.runMS)
			if traced {
				m.tracedMS = append(m.tracedMS, r.runMS)
			} else {
				m.runMS = append(m.runMS, r.runMS)
				s.untracedRuns++
			}
		}
		m.attempted += lg.attempted
		m.failed += lg.failed
		s.runs = append(s.runs, lg.runs...)
		s.submitMS = append(s.submitMS, lg.submitMS...)
	}
	seg := segmentBetween(before, after, done, traced, host)
	seg.resultMS = median(runMS)
	m.segs = append(m.segs, seg)
	return m
}

// clientLog is what one tenant's client goroutine saw. Operations are
// tasks, submits and runs: a rejected submit, a run that does not
// succeed and each task such a run leaves undone are failed operations.
type clientLog struct {
	runs      []serviceRun
	submitMS  []float64
	attempted int64
	failed    int64
	done      int64 // tasks of the runs seen terminal
}

// client is one tenant's closed loop: keep outstandingPerTenant runs
// in flight, poll the oldest at a fixed interval, and replace each run
// that ends until the two tenants have submitted total runs.
func (s *serviceRuns) client(slot int, tenant string, total int64, submitted *atomic.Int64, lg *clientLog) {
	rec := s.e.rec
	ctx := context.Background()
	c := &wfmd.Client{BaseURL: s.url, Tenant: tenant, HTTP: s.api}
	type pending struct {
		run   serviceRun
		at    time.Time
		tasks int64
	}
	var queue []pending
	share := len(s.pool) / len(tenants)
	mine := 0
	// submit sends the tenant's next run unless the section's runs are
	// all out; it reports whether it did.
	submit := func() bool {
		if submitted.Add(1) > total {
			return false
		}
		// Each tenant cycles through its own share of the pool, so two
		// outstanding runs never write the same files.
		pool := slot*share + mine%share
		mine++
		tasks := int64(s.pool[pool].Len())
		lg.attempted += tasks + 2 // the tasks, the submit, the run
		id, spanStart := rec.begin()
		at := time.Now()
		st, err := c.Submit(ctx, s.bodies[pool])
		rec.end(id, rec.trace.Load(), "wfmd.submit", spanStart)
		if err != nil {
			lg.failed += tasks + 2
			return true
		}
		lg.submitMS = append(lg.submitMS, msSince(at))
		queue = append(queue, pending{serviceRun{id: st.ID, pool: pool, tenant: tenant}, at, tasks})
		return true
	}
	for len(queue) < outstandingPerTenant && submit() {
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		id, spanStart := rec.begin()
		var st *wfmd.RunStatus
		var err error
		for {
			st, err = c.Status(ctx, p.run.id)
			if err != nil || wfmd.IsTerminal(st.State) {
				break
			}
			time.Sleep(pollInterval)
		}
		rec.end(id, rec.trace.Load(), "wfmd.wait", spanStart)
		p.run.runMS = msSince(p.at)
		switch {
		case err != nil:
			p.run.state = "unknown: " + err.Error()
			lg.failed += p.tasks + 1
		case st.State != wfmd.StateSucceeded:
			p.run.state = st.State
			lg.failed += p.tasks - st.Done + 1
			lg.done += st.Done
		default:
			p.run.state = st.State
			lg.done += st.Done
		}
		lg.runs = append(lg.runs, p.run)
		submit()
	}
}

// check is the service's gate: every run succeeded with every task
// completed, each pool workflow's outputs are on the drive, and the
// platform served exactly one request per task (no duplicates).
func (s *serviceRuns) check() []string {
	var bad []string
	var tasks int64
	for _, r := range s.runs {
		res, err := s.srv.Result(r.id)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("run %s: %v", r.id, err))
		case res.State != wfmd.StateSucceeded || res.Completed != res.Tasks:
			bad = append(bad, fmt.Sprintf("run %s: %s with %d of %d tasks", r.id, res.State, res.Completed, res.Tasks))
		default:
			tasks += int64(res.Tasks)
		}
	}
	bad = append(bad, missingOutputs(s.e, s.pool)...)
	if got := s.e.plat.Requests(); got != tasks {
		bad = append(bad, fmt.Sprintf("platform served %d requests for %d tasks", got, tasks))
	}
	for _, ts := range s.srv.TenantStats() {
		if ts.RunsRejected > 0 {
			bad = append(bad, fmt.Sprintf("tenant %s: %d submits rejected", ts.Tenant, ts.RunsRejected))
		}
	}
	return bad
}

func (s *serviceRuns) ownLayers(out map[string]float64) {
	var exec, over, lat []float64
	for _, r := range s.runs {
		res, err := s.srv.Result(r.id)
		if err != nil {
			continue
		}
		exec = append(exec, res.WallS*1000)
		over = append(over, r.runMS-res.WallS*1000)
		lat = append(lat, r.runMS)
	}
	if s.wall > 0 {
		out["wfmd.runs_per_s"] = float64(s.untracedRuns) / s.wall.Seconds()
	}
	out["wfmd.submit_ms_p50"] = median(s.submitMS)
	out["wfmd.exec_ms_p50"] = median(exec)
	out["wfmd.overhead_ms_p50"] = median(over)
	out["wfmd.run_ms_p99"] = quantile(lat, 0.99)

	var dispatched, contested, heavy, light int64
	for _, ts := range s.srv.TenantStats() {
		dispatched += ts.TasksDispatched
		contested += ts.ContestedGrants
		out["wfmd.rejected_submits"] += float64(ts.RunsRejected)
		switch ts.Tenant {
		case "heavy":
			heavy = ts.ContestedGrants
		case "light":
			light = ts.ContestedGrants
		}
	}
	if dispatched > 0 {
		out["wfmd.contested_grant_share"] = float64(contested) / float64(dispatched)
	}
	if light > 0 {
		out["wfmd.grant_ratio_heavy_light"] = float64(heavy) / float64(light)
	}

	var bytes int64
	filepath.WalkDir(filepath.Join(s.e.root, "wfmd"), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				bytes += info.Size()
			}
		}
		return nil
	})
	if n := len(s.runs); n > 0 {
		out["wfmd.disk_kb_per_run"] = float64(bytes) / 1024 / float64(n)
		// A run's journal, read back beside the writes of the others.
		dir := filepath.Join(wfmd.RunsRoot(filepath.Join(s.e.root, "wfmd")), s.runs[n-1].id, "journal")
		start := time.Now()
		if _, err := wfm.ReadRunJournal(dir); err == nil {
			out["journal.replay_ms"] = msSince(start)
		}
	}
	// The same runs without the service around them.
	bare, err := bareManagers(s.e, s.pool, s.bareOptions(), 8*s.sz.RungBudget)
	if err != nil || bare.runs == 0 {
		return
	}
	out["wfmd.bare_manager_tasks_per_s"] = bare.tasksPerS
	taskTimings(bare.results, out)
	var tasks float64
	for _, w := range s.pool {
		tasks += float64(w.Len())
	}
	perRun := tasks / float64(len(s.pool))
	out["journal.records_per_task"] = float64(bare.journal.Appends) / float64(bare.runs) / perRun
	out["journal.bytes_per_task"] = float64(bare.journal.Bytes) / float64(bare.runs) / perRun
	out["journal.syncs_per_run"] = float64(bare.journal.Syncs) / float64(bare.runs)
}
