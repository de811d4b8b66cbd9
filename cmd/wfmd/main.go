// wfmd is the long-lived workflow service: it accepts workflow JSON
// over HTTP (POST /v1/runs), executes many concurrent runs against
// shared backends with per-tenant quotas, weighted fair-share task
// dispatch and honest backpressure (429 + Retry-After), and logs every
// run's submission, journal records and result in one service log
// under -data-dir, so a restart resumes incomplete runs without
// duplicating completed work.
//
//	wfmd -addr :9433 -data-dir wfmd-data -workdir wfbench-data \
//	     -tenant team-a:3:8 -tenant team-b:1:4
//
// Lifecycle API (see DESIGN.md §12):
//
//	POST /v1/runs?tenant=T&priority=high|normal|low   body: workflow JSON
//	GET  /v1/runs[?tenant=T]
//	GET  /v1/runs/{id}
//	POST /v1/runs/{id}/cancel
//	GET  /v1/runs/{id}/result
//	GET  /metrics · /healthz · /debug/pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wfserverless/internal/journal"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfm"
	"wfserverless/internal/wfmd"
)

// cli holds every flag's value. The flags fill cfg in directly, except
// the three that main parses into it: a mode, a policy and a duration.
type cli struct {
	addr, workdir, logLevel string
	schedule, journalSync   string
	journalGroupMS          float64
	tenants                 tenantFlags
	cfg                     wfmd.Config
}

// newFlags registers wfmd's flags on fs.
func newFlags(fs *flag.FlagSet) *cli {
	c := new(cli)
	fs.StringVar(&c.addr, "addr", ":9433", "HTTP listen address")
	fs.StringVar(&c.cfg.DataDir, "data-dir", "wfmd-data", "service state root: one service log per daemon start, sampled runs' spans")
	fs.StringVar(&c.workdir, "workdir", "wfbench-data", "shared drive directory the workflows' tasks stage files on")

	fs.Float64Var(&c.cfg.DefaultTenant.Weight, "default-weight", 1, "fair-share weight for tenants not named by -tenant")
	fs.IntVar(&c.cfg.DefaultTenant.MaxConcurrentRuns, "default-max-runs", 4, "concurrent-run quota for tenants not named by -tenant")
	fs.IntVar(&c.cfg.DefaultTenant.MaxInFlightTasks, "default-max-tasks", 0, "in-flight task quota for tenants not named by -tenant (0: uncapped)")
	fs.IntVar(&c.cfg.QueueCapacity, "queue-capacity", 256, "admitted-but-not-running runs held before submissions get 429")
	fs.IntVar(&c.cfg.MaxActiveRuns, "max-active-runs", 64, "simultaneously executing runs across all tenants")
	fs.IntVar(&c.cfg.TaskSlots, "task-slots", 256, "global in-flight task invocation budget shared by all runs")
	fs.Float64Var(&c.cfg.RetryAfter, "retry-after", 1, "Retry-After hint on 429 responses, seconds")

	m := &c.cfg.Manager
	fs.StringVar(&c.schedule, "schedule", "dependency", "per-run scheduling mode: phases or dependency")
	fs.Float64Var(&m.TimeScale, "time-scale", 1.0, "nominal-second to wall-second factor")
	fs.IntVar(&m.MaxParallel, "max-parallel", 64, "max simultaneous HTTP invocations per run (the global budget is -task-slots)")
	fs.IntVar(&m.Retries, "retries", 0, "retry transient invocation failures this many times")
	fs.Float64Var(&m.RetryBackoff, "retry-backoff", 0, "base retry backoff, nominal seconds")
	fs.Float64Var(&m.RetryBackoffMax, "retry-backoff-max", 0, "backoff ceiling, nominal seconds (0: 30)")
	fs.Float64Var(&m.TaskTimeout, "task-timeout", 0, "whole-task deadline across attempts, nominal seconds (0: none)")
	fs.BoolVar(&m.Breaker.Enabled, "breaker", false, "enable the per-endpoint circuit breaker in every run")

	fs.StringVar(&c.journalSync, "journal-sync", "group", "run journal fsync policy: group, always, never")
	fs.Float64Var(&c.journalGroupMS, "journal-group-ms", 2, "group-commit batching window, wall milliseconds")
	fs.Float64Var(&c.cfg.TraceSample, "trace-sample", 0, "per-run trace sampling ratio in (0,1]; sampled runs write spans/<id>.jsonl under -data-dir")
	fs.StringVar(&c.logLevel, "log-level", "info", "structured logging to stderr: debug, info, warn, error, or off")
	fs.Var(&c.tenants, "tenant", "tenant quota spec name:weight[:max-runs[:max-tasks]] (repeatable)")
	return c
}

func main() {
	c := newFlags(flag.CommandLine)
	flag.Parse()

	cfg := &c.cfg
	var err error
	if cfg.Manager.Scheduling, err = wfm.ParseScheduling(c.schedule); err != nil {
		fatal(err)
	}
	if cfg.JournalSync, err = journal.ParseSyncPolicy(c.journalSync); err != nil {
		fatal(err)
	}
	cfg.JournalGroupWindow = time.Duration(c.journalGroupMS * float64(time.Millisecond))
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	if c.logLevel == "off" {
		logger = nil
	} else if c.logLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(c.logLevel)); err != nil {
			fatal(fmt.Errorf("-log-level: %w", err))
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}

	drive, err := sharedfs.NewDisk(c.workdir)
	if err != nil {
		fatal(err)
	}
	cfg.Manager.Drive = drive
	cfg.Tenants = c.tenants.configs
	cfg.Logger = logger
	srv, err := wfmd.New(*cfg)
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: c.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("wfmd: serving on %s (data dir %s, %d task slots)\n", c.addr, cfg.DataDir, cfg.TaskSlots)

	// SIGINT/SIGTERM drain gracefully: the HTTP listener closes, every
	// running Manager's context is cancelled, journals close clean, and
	// interrupted runs resume on the next start with the same -data-dir.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Println("wfmd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(shutCtx)
		cancel()
		srv.Stop()
	}
}

// tenantFlags parses repeated -tenant name:weight[:max-runs[:max-tasks]].
type tenantFlags struct {
	configs []wfmd.TenantConfig
}

func (t *tenantFlags) String() string {
	parts := make([]string, len(t.configs))
	for i, c := range t.configs {
		parts[i] = fmt.Sprintf("%s:%g:%d:%d", c.Name, c.Weight, c.MaxConcurrentRuns, c.MaxInFlightTasks)
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
		return fmt.Errorf("want name:weight[:max-runs[:max-tasks]], got %q", v)
	}
	tc := wfmd.TenantConfig{Name: parts[0]}
	w, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return fmt.Errorf("bad weight in %q: %w", v, err)
	}
	tc.Weight = w
	if len(parts) > 2 {
		if tc.MaxConcurrentRuns, err = strconv.Atoi(parts[2]); err != nil {
			return fmt.Errorf("bad max-runs in %q: %w", v, err)
		}
	}
	if len(parts) > 3 {
		if tc.MaxInFlightTasks, err = strconv.Atoi(parts[3]); err != nil {
			return fmt.Errorf("bad max-tasks in %q: %w", v, err)
		}
	}
	t.configs = append(t.configs, tc)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfmd:", err)
	os.Exit(1)
}
