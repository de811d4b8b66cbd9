package experiments

// The service campaign: the multi-run control plane's acceptance
// experiment. Three phases drive wfmd end to end over its real HTTP
// surface (an httptest listener in front of Server.Handler, driven
// through wfmd.Client):
//
//  1. fairness: two saturating tenants with 3:1 weights submit equal
//     batches of runs. Neither tenant's concurrently running runs may
//     exceed its quota, and the contested task-grant ratio must land
//     within 15% of the weights; weights only bind under contention, so
//     the ratio counts grants made while both tenants had waiting work.
//  2. backpressure: a two-deep admission queue is flooded. Overflow is
//     answered 429 with a parseable Retry-After, and a client that
//     honours the hint eventually lands every submission.
//  3. recovery: the daemon is killed (Server.Abort: journals lose their
//     unsynced tails exactly as SIGKILL would) with two tenants' runs in
//     the air, then restarted on the same data dir. Every run resumes to
//     success, and no task the service log recorded completed is invoked
//     again, by the stub that survives both daemon lives.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
	"wfserverless/internal/wfmd"
)

func newService(cfg Config) (*campaign, error) {
	cfg = cfg.or(Config{Runs: 6, Tasks: 64, Slots: 4, Parallel: 64, TimeScale: 0.001})
	const quota, heavy, light = 2, 3.0, 1.0 // runs per tenant, fair-share weights
	pair := func(a, b any) string { return fmt.Sprintf("%v/%v", a, b) }
	c := &campaign{
		title: fmt.Sprintf("Service: wfmd control plane, %d runs/tenant x %d tasks, %d task slots", cfg.Runs, cfg.Tasks, cfg.Slots),
		env:   envSpec{delay: 2 * time.Millisecond}, // keeps the task gate saturated
		opts: cfg.manager(wfm.Options{Scheduling: wfm.ScheduleDependency, InputWait: 5000,
			Retries: 2, RetryBackoff: 0.05}),
		cells: []Cell{{Phase: "fairness"}, {Phase: "backpressure"}, {Phase: "recovery"}},
		columns: []column{
			{"phase", -13, func(r *Row) any { return r.Phase }},
			{"runs", 5, func(r *Row) any { return r.Runs }},
			{"done", 5, func(r *Row) any { return r.Succeeded }},
			{"highwater", 9, func(r *Row) any { return pair(r.Highwater[0], r.Highwater[1]) }},
			{"quota", 5, func(r *Row) any { return r.Quota }},
			{"grants", 11, func(r *Row) any { return pair(r.Grants[0], r.Grants[1]) }},
			{"ratio", 6, func(r *Row) any { return fmt.Sprintf("%.2f", r.Ratio) }},
			{"target", 6, func(r *Row) any { return fmt.Sprintf("%.2f", r.Target) }},
			{"taskHW", 6, func(r *Row) any { return r.TaskHighwater }},
			{"slots", 5, func(r *Row) any { return r.Slots }},
			{"429s", 5, func(r *Row) any { return r.Rejected }},
			{"retryAfter", 10, func(r *Row) any { return fmt.Sprintf("%q", r.RetryAfter) }},
			{"recorded", 8, func(r *Row) any { return r.Recorded }},
			{"resumed", 7, func(r *Row) any { return r.Resumed }},
			dupsCol,
		},
		gates: []gate{
			{"per-tenant concurrent-run quota never exceeded", func(r *Row) bool {
				return r.Phase != "fairness" ||
					(r.Highwater[0] > 0 && r.Highwater[1] > 0 && r.Highwater[0] <= r.Quota && r.Highwater[1] <= r.Quota)
			}},
			{"fair-share dispatch ratio within 15% of weights", func(r *Row) bool {
				return r.Phase != "fairness" ||
					(r.Grants[0] > 0 && r.Grants[1] > 0 && r.Ratio >= r.Target*0.85 && r.Ratio <= r.Target*1.15)
			}},
			{"queue overflow rejected with 429 + Retry-After, retries drained", func(r *Row) bool {
				return r.Phase != "backpressure" || (r.Rejected > 0 && r.RetryAfter != "" && r.Succeeded == r.Runs)
			}},
			{"restart resumed every run", func(r *Row) bool {
				return r.Phase != "recovery" || (r.Succeeded == r.Runs && r.Resumed > 0 && r.Recorded > 0)
			}},
			noDuplicates,
		},
	}

	// submit posts a fresh fanout of n tasks, named after prefix, through
	// the client that retries on 429.
	submit := func(ctx context.Context, d *daemon, tenant, prefix string, n int) (string, error) {
		b, err := d.workflow(prefix, n)
		if err != nil {
			return "", err
		}
		st, err := d.client(tenant).Submit(ctx, b)
		if err != nil {
			return "", fmt.Errorf("submit %s %s: %w", tenant, prefix, err)
		}
		return st.ID, nil
	}
	// wait drains runs and counts those that succeeded.
	wait := func(ctx context.Context, d *daemon, ids []string, r *Row) error {
		for _, id := range ids {
			st, err := d.client("").Wait(ctx, id, 20*time.Millisecond)
			if err != nil {
				return err
			}
			if st.State != wfmd.StateSucceeded {
				return fmt.Errorf("run %s ended %s: %s", id, st.State, st.Error)
			}
			r.Succeeded++
			if st.Resumed {
				r.Resumed++
			}
		}
		return nil
	}
	weighted := []wfmd.TenantConfig{
		{Name: "heavy", Weight: heavy, MaxConcurrentRuns: quota},
		{Name: "light", Weight: light, MaxConcurrentRuns: quota},
	}

	c.measure = func(ctx context.Context, cl Cell) (Row, error) {
		r := Row{Slots: cfg.Slots}
		e, err := newEnv(c.env)
		if err != nil {
			return r, err
		}
		defer e.close()
		svc := wfmd.Config{Tenants: weighted, QueueCapacity: 16, TaskSlots: cfg.Slots, RetryAfter: 0.05}
		switch cl.Phase {
		case "fairness":
			svc.QueueCapacity = 4 * cfg.Runs
		case "backpressure":
			svc.Tenants = []wfmd.TenantConfig{{Name: "flood", Weight: 1, MaxConcurrentRuns: 1}}
			svc.QueueCapacity = 2
		}
		d, err := startDaemon(e, c.opts, svc)
		if err != nil {
			return r, err
		}
		defer func() {
			if d != nil {
				d.stop()
			}
		}()

		switch cl.Phase {
		case "fairness":
			var wg sync.WaitGroup
			errs := make([]error, 2)
			rows := make([]Row, 2)
			for i, tenant := range []string{"heavy", "light"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var ids []string
					for k := 0; k < cfg.Runs; k++ {
						id, err := submit(ctx, d, tenant, fmt.Sprintf("%s%d_", tenant, k), cfg.Tasks)
						if err != nil {
							errs[i] = err
							return
						}
						ids = append(ids, id)
					}
					errs[i] = wait(ctx, d, ids, &rows[i])
				}()
			}
			wg.Wait()
			for i := range errs {
				if errs[i] != nil {
					return r, errs[i]
				}
				r.Succeeded += rows[i].Succeeded
			}
			for _, ts := range d.srv.TenantStats() {
				i := 0
				if ts.Tenant == "light" {
					i = 1
				}
				r.Runs += int(ts.RunsAccepted)
				r.Highwater[i], r.Grants[i] = ts.RunHighwater, ts.ContestedGrants
				r.TaskHighwater = max(r.TaskHighwater, ts.TaskHighwater)
			}
			r.Quota, r.Target = quota, heavy/light
			if r.Grants[1] > 0 {
				r.Ratio = float64(r.Grants[0]) / float64(r.Grants[1])
			}

		case "backpressure":
			// Raw POSTs, no retry: with quota 1 and a queue of 2, the burst
			// must overflow into 429s carrying a Retry-After hint.
			const burst = 8
			r.Runs = burst
			for i := 0; i < burst; i++ {
				b, err := d.workflow(fmt.Sprintf("bp%d_", i), cfg.Tasks/4)
				if err != nil {
					return r, err
				}
				resp, err := http.Post(d.http.URL+"/v1/runs?tenant=flood", "application/json", bytes.NewReader(b))
				if err != nil {
					return r, err
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					r.Rejected++
					if h := resp.Header.Get("Retry-After"); r.RetryAfter == "" && wfm.ParseRetryAfter(h) > 0 {
						r.RetryAfter = h
					}
				default:
					return r, fmt.Errorf("backpressure burst: unexpected status %d", resp.StatusCode)
				}
			}
			// The polite client resubmits the rejected remainder on the
			// shared backoff policy until the queue drains.
			for i := 0; i < r.Rejected; i++ {
				if _, err := submit(ctx, d, "flood", fmt.Sprintf("bpretry%d_", i), cfg.Tasks/4); err != nil {
					return r, err
				}
			}
			runs, err := d.client("flood").List(ctx, false)
			if err != nil {
				return r, err
			}
			var ids []string
			for _, st := range runs {
				ids = append(ids, st.ID)
			}
			if err := wait(ctx, d, ids, &r); err != nil {
				return r, err
			}

		case "recovery":
			// Life 1: two runs per tenant; about a third of the work
			// lands, then the daemon dies.
			var ids []string
			for _, tenant := range []string{"heavy", "light"} {
				for k := 0; k < 2; k++ {
					id, err := submit(ctx, d, tenant, fmt.Sprintf("rc_%s%d_", tenant, k), cfg.Tasks)
					if err != nil {
						return r, err
					}
					ids = append(ids, id)
				}
			}
			r.Runs = len(ids)
			deadline := time.Now().Add(30 * time.Second)
			for e.stub.Total() < len(ids)*cfg.Tasks/3 {
				if time.Now().After(deadline) {
					return r, fmt.Errorf("recovery phase: stub saw %d executions", e.stub.Total())
				}
				time.Sleep(2 * time.Millisecond)
			}
			d.http.Close()
			d.srv.Abort() // blocks until every executor is down
			d = nil
			// What the service log recorded completed at the moment of death.
			logged, err := wfmd.ReadDataDir(e.dir)
			if err != nil {
				return r, err
			}
			var recorded []string
			for _, lr := range logged {
				w, err := wfformat.Parse(lr.Workflow)
				if err != nil {
					return r, err
				}
				names := w.TaskNames()
				for _, id := range wfm.SummarizeJournal(lr.Records, lr.Torn).CompletedIDs {
					recorded = append(recorded, names[id])
				}
			}
			r.Recorded = len(recorded)
			// Life 2: a fresh daemon on the same data dir; every run must
			// come back and finish.
			if d, err = startDaemon(e, c.opts, svc); err != nil {
				return r, err
			}
			if err := wait(ctx, d, ids, &r); err != nil {
				return r, err
			}
			r.Dups = twice(e.stub.Counts(), recorded)
		}
		return r, nil
	}
	return c, nil
}

// daemon is a wfmd over an env's data dir behind a real HTTP listener.
type daemon struct {
	e    *env
	srv  *wfmd.Server
	http *httptest.Server
}

func startDaemon(e *env, opts wfm.Options, svc wfmd.Config) (*daemon, error) {
	opts.Drive = e.drive
	svc.DataDir, svc.Manager = e.dir, opts
	srv, err := wfmd.New(svc)
	if err != nil {
		return nil, err
	}
	return &daemon{e: e, srv: srv, http: httptest.NewServer(srv.Handler())}, nil
}

func (d *daemon) stop() {
	d.http.Close()
	d.srv.Stop()
}

func (d *daemon) client(tenant string) *wfmd.Client {
	return &wfmd.Client{BaseURL: d.http.URL, Tenant: tenant, RetryBackoff: 0.02, RetryBackoffMax: 0.2, MaxRetries: 400}
}

// workflow returns a submission: a fanout of n tasks named after prefix,
// aimed at the env's stub.
func (d *daemon) workflow(prefix string, n int) ([]byte, error) {
	w, _, err := synthetic(prefix, "fanout", n, 0, 0)
	if err != nil {
		return nil, err
	}
	return d.e.target(w).Marshal()
}
