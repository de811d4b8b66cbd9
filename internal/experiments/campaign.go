package experiments

// This file is the one campaign harness. A campaign is three parts:
//
//   - an environment: a drive, one Executor chain (a counting Stub or a
//     WfBench Service, optionally under the fault injector) behind one
//     loopback endpoint, a scratch directory for the journal, the memo
//     cache or wfmd's data, and manager options derived from one base;
//   - cells: scheduling mode x faults x crash point x memo variant x
//     service phase, each campaign varying the dimensions it needs;
//   - gates: named predicates every row must pass.
//
// run is the one driver: it measures the cells, renders the table from
// the campaign's column list and returns the gates that failed. The
// invariants the campaigns share are computed here once: no recorded
// or memoized task is invoked twice (twice), the drive equals the
// reference run's (reference), and the set of invoked tasks equals the
// expected set (invoked).

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"wfserverless/internal/health"
	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/obs"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

// Config holds every campaign's knobs. A zero field takes the
// campaign's default.
type Config struct {
	Tasks  int    // workflow size (per run, for service)
	Width  int    // tasks per layer of the random DAG shape
	Shape  string // scale: random, chain or fanout
	Recipe string // resilience: the generated recipe
	Trials int    // recovery: crash points per {scheduling} x {faults} cell
	Edits  int    // memo: tasks edited in the k-edit variant
	Runs   int    // service: runs per tenant in the fairness phase
	Slots  int    // service: global in-flight task slots

	Parallel  int     // the managers' MaxParallel
	Seed      int64   // DAG shape, crash points, edits and fault draws
	TimeScale float64 // nominal-to-wall compression

	// Scheduling is the one mode scale runs; the other campaigns run both.
	Scheduling wfm.Scheduling
	// Faults is the injected profile: resilience's, and recovery's in its
	// faults-on cells.
	Faults wfbench.FaultProfile
	// Latency is health's injected straggler delay (wall clock).
	Latency  time.Duration
	Batching wfm.BatchOptions
	// Memoize adds the memo cache to recovery (beside the journal) and a
	// warm re-run to each resilience cell.
	Memoize bool
	// TraceSample is the span sampling ratio of resilience and scale
	// runs (0 disables); the trace rides on each row.
	TraceSample float64
}

// or fills c's zero fields from a campaign's defaults d.
func (c Config) or(d Config) Config {
	for _, f := range []struct{ v, d *int }{
		{&c.Tasks, &d.Tasks}, {&c.Width, &d.Width}, {&c.Trials, &d.Trials}, {&c.Edits, &d.Edits},
		{&c.Runs, &d.Runs}, {&c.Slots, &d.Slots}, {&c.Parallel, &d.Parallel},
	} {
		if *f.v == 0 {
			*f.v = *f.d
		}
	}
	if c.Shape == "" {
		c.Shape = d.Shape
	}
	if c.Recipe == "" {
		c.Recipe = d.Recipe
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.TimeScale == 0 {
		c.TimeScale = d.TimeScale
	}
	if !c.Faults.Active() {
		c.Faults = d.Faults
	}
	if c.Latency == 0 {
		c.Latency = d.Latency
	}
	return c
}

// manager derives a campaign's manager options from the one base: the
// config's time scale, parallelism and batching over the campaign's own
// policy in o. Phase delay and input wait keep wfm's defaults unless o
// sets them.
func (c Config) manager(o wfm.Options) wfm.Options {
	o.TimeScale, o.MaxParallel, o.Batching = c.TimeScale, c.Parallel, c.Batching
	return o
}

// tracer returns a span tracer at the config's sampling ratio, or nil.
func (c Config) tracer() *obs.Tracer {
	if c.TraceSample <= 0 {
		return nil
	}
	return obs.NewTracer(obs.Options{SampleRatio: c.TraceSample})
}

// A Cell is one point of a campaign's design.
type Cell struct {
	Mode    wfm.Scheduling
	Faults  bool   // recovery: the injector is in front of the stub
	Trial   int    // recovery: the crash point's index
	Variant string // memo: cold, rerun, edit1 or editk
	Phase   string // service: fairness, backpressure or recovery
}

func (c Cell) String() string {
	switch {
	case c.Phase != "":
		return c.Phase
	case c.Variant != "":
		return c.Mode.String() + "/" + c.Variant
	case c.Faults || c.Trial > 0:
		return fmt.Sprintf("%s faults=%t trial %d", c.Mode, c.Faults, c.Trial)
	}
	return c.Mode.String()
}

// modes crosses both scheduling modes with a campaign's inner cells.
func modes(inner ...Cell) []Cell {
	var out []Cell
	for _, mode := range []wfm.Scheduling{wfm.SchedulePhases, wfm.ScheduleDependency} {
		for _, c := range inner {
			c.Mode = mode
			out = append(out, c)
		}
	}
	return out
}

// A Row is one cell's measurement. Each campaign fills the fields its
// columns and gates read; the rest stay zero.
type Row struct {
	Cell
	Workflow string
	Recipe   string // the recipe or DAG shape the workflow came from
	Tasks    int
	Edges    int

	// The shared invariants' ground truth, from the counting stub and
	// the reference run.
	Dups       int  // recorded or memoized tasks the stub ran twice
	DriveMatch bool // the drive equals the reference run's
	Expected   int  // how many tasks the cell should invoke
	Invoked    int  // how many invocations the stub took
	Exact      bool // the stub ran exactly the expected tasks, once each

	// Crash and resume: the resume report and the storage loss.
	CrashAfter, Vanished          int
	Recorded, Skipped, Reexecuted int

	// The memo report.
	Edited, Hits, Misses int
	SkippedBytes         int64

	// Retries through injected faults.
	Attempts, Retries, Failed int
	TaskAttempts              map[string]int
	FaultStats                wfbench.FaultStats
	Breakers                  []wfm.BreakerTransition
	MakespanS                 float64

	// Stragglers: the detection-off run's wall against Wall, the
	// injector's delayed names against the watchdog's flags, and the
	// detection-on run's journal.
	BaselineWall                        time.Duration
	ImprovementPct                      float64
	Injected, Flagged                   []string
	SpeculativeRetries, SpeculativeWins int64
	Endpoints                           []health.EndpointStats
	JournalCompleted, TerminalRecords   int

	Wall, BuildWall time.Duration
	TasksPerSec     float64
	PeakRSS         int64
	Completed       int
	Trace           *wfm.Trace

	// wfmd phases; the pairs are {heavy, light}.
	Runs, Succeeded, Resumed    int
	Highwater                   [2]int
	Grants                      [2]int64
	Quota, TaskHighwater, Slots int
	Ratio, Target               float64
	Rejected                    int
	RetryAfter                  string
}

// Missing returns the injected names the watchdog never flagged.
func (r *Row) Missing() []string {
	var missing []string
	for _, n := range r.Injected {
		if !slices.Contains(r.Flagged, n) {
			missing = append(missing, n)
		}
	}
	return missing
}

// A column is one table column: its header, its width (negative
// left-aligns) and the value a row shows in it.
type column struct {
	name  string
	width int
	value func(*Row) any
}

var (
	modeCol     = column{"scheduling", -12, func(r *Row) any { return r.Mode }}
	workflowCol = column{"workflow", -22, func(r *Row) any { return r.Workflow }}
	tasksCol    = column{"tasks", 6, func(r *Row) any { return r.Tasks }}
	dupsCol     = column{"dups", 5, func(r *Row) any { return r.Dups }}
	driveCol    = column{"driveMatch", 10, func(r *Row) any { return r.DriveMatch }}
)

// A gate is a named predicate every row of its campaign must pass.
type gate struct {
	name string
	ok   func(*Row) bool
}

// The gates more than one campaign states.
var (
	noDuplicates = gate{"no recorded or memoized task invoked twice", func(r *Row) bool { return r.Dups == 0 }}
	driveMatches = gate{"drive equals the reference run's", func(r *Row) bool { return r.DriveMatch }}
	invokedSet   = gate{"invoked set equals the expected set", func(r *Row) bool { return r.Exact }}
	memoHits     = gate{"every task outside the expected set is a memo hit", func(r *Row) bool {
		return r.Hits == r.Tasks-r.Expected && r.Misses == r.Expected
	}}
)

// A campaign is an environment, cells, columns and gates; measure runs
// one cell in it.
type campaign struct {
	title   string
	env     envSpec
	opts    wfm.Options
	cells   []Cell
	measure func(context.Context, Cell) (Row, error)
	columns []column
	gates   []gate
	// footer, when set, adds lines below the table: figures the host
	// clock has a say in.
	footer func([]Row) []string
}

// run writes the title to w, measures every cell, and writes the table,
// the footer and one line per gate. It returns the rows and the failed
// gates.
func (c *campaign) run(ctx context.Context, w io.Writer) ([]Row, []string, error) {
	if _, err := fmt.Fprintf(w, "== %s ==\n", c.title); err != nil {
		return nil, nil, err
	}
	rows := make([]Row, 0, len(c.cells))
	for _, cl := range c.cells {
		r, err := c.measure(ctx, cl)
		if err != nil {
			return rows, nil, err
		}
		r.Cell = cl
		rows = append(rows, r)
	}
	var b strings.Builder
	line := func(cell func(column) any) {
		for i, col := range c.columns {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%*v", col.width, cell(col))
		}
		b.WriteByte('\n')
	}
	line(func(col column) any { return col.name })
	for i := range rows {
		line(func(col column) any { return col.value(&rows[i]) })
	}
	if c.footer != nil {
		for _, l := range c.footer(rows) {
			b.WriteString(l + "\n")
		}
	}
	var failed []string
	for _, g := range c.gates {
		bad := g.failing(rows)
		verdict := "PASS"
		if len(bad) > 0 {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s\n", verdict, g.name)
		failed = append(failed, bad...)
	}
	_, err := io.WriteString(w, b.String())
	return rows, failed, err
}

// failing returns "<gate>: <cell>" for every row that fails g.
func (g gate) failing(rows []Row) []string {
	var bad []string
	for i := range rows {
		if !g.ok(&rows[i]) {
			bad = append(bad, fmt.Sprintf("%s: %s", g.name, rows[i].Cell))
		}
	}
	return bad
}

// reference runs w uninterrupted in a fresh world built from spec, with
// no journal and no cache, and returns the drive it leaves: the state a
// cell's drive must equal.
func (c *campaign) reference(ctx context.Context, spec envSpec, mode wfm.Scheduling) ([]string, error) {
	e, err := newEnv(spec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	o := c.opts
	o.Scheduling, o.Journal, o.Memoize = mode, nil, nil
	if _, err := e.run(ctx, o); err != nil {
		return nil, fmt.Errorf("experiments: %s reference run (%s): %w", e.w.Name, mode, err)
	}
	return e.drive.List(), nil
}

// twice counts the names in names the stub ran more than once.
func twice(counts map[string]int, names []string) int {
	n := 0
	for _, name := range names {
		if counts[name] > 1 {
			n++
		}
	}
	return n
}

// invoked compares the stub's counts before and after a cell: how many
// invocations the cell took, and whether it ran exactly the expected
// names, once each.
func invoked(before, after map[string]int, expect map[string]bool) (total int, exact bool) {
	exact = true
	names := 0
	for name, n := range after {
		d := n - before[name]
		if d == 0 {
			continue
		}
		total += d
		names++
		if d != 1 || !expect[name] {
			exact = false
		}
	}
	return total, exact && names == len(expect)
}

// envSpec says how to build a campaign's world.
type envSpec struct {
	w         *wfformat.Workflow   // retargeted in place at the env's endpoint; may be nil
	delay     time.Duration        // the stub's per-invocation delay
	workers   int                  // > 0: a WfBench Service of this many workers, not a stub
	timeScale float64              // the Service's
	tracer    *obs.Tracer          // the Service's
	faults    wfbench.FaultProfile // when active, the chain runs under the injector
}

// env is one world: a fresh drive, the executor chain behind a loopback
// endpoint, and a scratch directory.
type env struct {
	drive sharedfs.Drive
	stub  *wfbench.Stub // counts executions: the ground truth of twice and invoked
	inj   *wfbench.Injector
	svc   *wfbench.Service
	srv   *wfbench.Loopback
	w     *wfformat.Workflow
	dir   string
}

func newEnv(s envSpec) (*env, error) {
	e := &env{drive: sharedfs.NewMem()}
	if err := e.build(s); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) build(s envSpec) (err error) {
	var exec wfbench.Executor
	if s.workers > 0 {
		var bench *wfbench.Bench
		if bench, err = wfbench.New(wfbench.Config{Drive: e.drive, TimeScale: s.timeScale, Tracer: s.tracer}); err != nil {
			return err
		}
		if e.svc, err = wfbench.NewService(bench, s.workers); err != nil {
			return err
		}
		exec = e.svc
	} else {
		e.stub = wfbench.NewStub(e.drive, s.delay)
		exec = e.stub
	}
	if s.faults.Active() {
		if e.inj, err = wfbench.NewInjector(exec, s.faults); err != nil {
			return err
		}
		exec = e.inj
	}
	if e.srv, err = wfbench.ListenLoopback(wfbench.NewEndpoint(exec)); err != nil {
		return err
	}
	if e.dir, err = os.MkdirTemp("", "wfm-campaign-"); err != nil {
		return err
	}
	if s.w != nil {
		e.w = e.target(s.w)
	}
	return nil
}

// target points every task of w at the env's endpoint.
func (e *env) target(w *wfformat.Workflow) *wfformat.Workflow {
	for _, t := range w.Tasks {
		t.Command.APIURL = e.srv.URL() + "/wfbench"
	}
	return w
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

func (e *env) manager(o wfm.Options) (*wfm.Manager, error) {
	o.Drive = e.drive
	return wfm.New(o)
}

// run runs the env's workflow once under o.
func (e *env) run(ctx context.Context, o wfm.Options) (*wfm.Result, error) {
	m, err := e.manager(o)
	if err != nil {
		return nil, err
	}
	return m.Run(ctx, e.w)
}

// journal opens (or reopens, replaying it) the env's run journal.
func (e *env) journal() (*journal.Journal, error) {
	return journal.Open(filepath.Join(e.dir, "journal"), journal.Options{Sync: journal.SyncGroup})
}

// cache opens (or reopens) the env's memo cache.
func (e *env) cache() (*memo.Cache, error) {
	return memo.Open(filepath.Join(e.dir, "memo.cache"))
}

// campaigns are the acceptance campaigns by -suite name.
var campaigns = map[string]func(Config) (*campaign, error){
	"recovery":   newRecovery,
	"memo":       newMemo,
	"resilience": newResilience,
	"health":     newHealth,
	"scale":      newScale,
	"service":    newService,
}

// IsCampaign reports whether suite names an acceptance campaign.
func IsCampaign(suite string) bool { return campaigns[suite] != nil }

// RunCampaign runs the named acceptance campaign under cfg. It writes
// the title, the table and one line per gate to w, and returns the rows
// and the gates that failed.
func RunCampaign(ctx context.Context, w io.Writer, suite string, cfg Config) ([]Row, []string, error) {
	build := campaigns[suite]
	if build == nil {
		return nil, nil, fmt.Errorf("experiments: unknown campaign %q", suite)
	}
	c, err := build(cfg)
	if err != nil {
		return nil, nil, err
	}
	return c.run(ctx, w)
}
