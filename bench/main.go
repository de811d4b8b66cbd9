// Command bench is the reference benchmark of this repository: four
// workloads, seven end-to-end metrics, a per-layer ladder and a traced
// run. One process runs one workload once; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	tmp      string // under which a run makes, and removes, its temp roots
	sz       sizes
}

const (
	// setUps is how many times a run sets up; setup_s is their median.
	setUps = 3
	// warmUps is how many untimed units follow the last set-up's cold run.
	warmUps = 1
	// tracePairs is how many untraced/traced pairs a traced run makes.
	tracePairs = 5
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the one JSON object a run prints last.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if spec := os.Getenv(hostRefEnv); spec != "" {
		os.Exit(hostRefChild(spec))
	}
	cfg := config{sz: referenceSizes, tmp: filepath.Join(".bench_build", "tmp")}
	var trace, selfcheck int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: recipes_http, fanout_batch_durable, memo_rerun or service_small_runs")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs; it reaches input generation only")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed section")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "where the traced run writes its spans as JSONL (default bench_out/WORKLOAD.trace.jsonl)")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run two alternating sets of K runs per workload, each run on another seed, and compare them against the bounds")
	flag.Parse()
	cfg.trace = trace != 0

	if selfcheck > 0 {
		os.Exit(runSelfcheck(selfcheck, cfg))
	}
	// A signal is the one exit path no defer covers: remove this
	// process's temp roots and leave.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		roots, _ := filepath.Glob(filepath.Join(cfg.tmp, tempRootPrefix()+"*"))
		for _, r := range roots {
			os.RemoveAll(r)
		}
		os.Exit(130)
	}()
	out, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// setUp is one full set-up: start the platform, generate the inputs,
// run once cold.
type setUp struct {
	e                         *env
	w                         workload
	platform, generate, first time.Duration
	host                      hostFactors // from the host reference, read right after
}

func (s *setUp) total() time.Duration { return s.platform + s.generate + s.first }

func (s *setUp) close() {
	if s.w != nil {
		s.w.close()
	}
	if s.e != nil {
		s.e.close()
	}
}

func doSetUp(cfg config, rec *recorder) (*setUp, error) {
	s := &setUp{}
	t := time.Now()
	var err error
	if s.e, err = newEnv(cfg.tmp, rec, cfg.sz); err != nil {
		return s, err
	}
	s.platform = time.Since(t)
	if s.w, err = newWorkload(cfg.workload, s.e); err != nil {
		return s, err
	}
	t = time.Now()
	if err = s.w.generate(cfg.seed, cfg.sz); err != nil {
		return s, fmt.Errorf("generate: %w", err)
	}
	s.generate = time.Since(t)
	t = time.Now()
	if err = s.w.firstRun(); err != nil {
		return s, fmt.Errorf("first run: %w", err)
	}
	s.first = time.Since(t)
	runtime.GC()
	refs, err := hostRef(3, s.e.refDiv)
	if err != nil {
		return s, err
	}
	s.host = factorsOf(refs)
	return s, nil
}

// runWorkload is one run of one workload: set-ups, warm-ups, a forced
// GC and a reset of the peak, the timed section, the correctness gate
// and, when tracing, the layer ladder. The report goes to w; the caller prints the outcome.
func runWorkload(cfg config, w io.Writer) (*outcome, error) {
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	rec := newRecorder()

	// Set-up is repeated and its median reported: a single set-up is
	// too short to repeat within its bound. A traced run reports no
	// setup_s and sets up once.
	n := setUps
	if cfg.trace {
		n = 1
	}
	var s *setUp
	var setupS, setupAtRef, genMS, platMS, firstMS []float64
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		var err error
		s, err = doSetUp(cfg, rec)
		if err != nil {
			s.close()
			return nil, err
		}
		setupS = append(setupS, s.total().Seconds())
		setupAtRef = append(setupAtRef, s.total().Seconds()/s.host.wall)
		genMS = append(genMS, float64(s.generate)/1e6)
		platMS = append(platMS, float64(s.platform)/1e6)
		firstMS = append(firstMS, float64(s.first)/1e6)
	}
	defer s.close()

	unit := s.w.unit(cfg.seconds)
	for i := 0; i < warmUps; i++ {
		if m := s.w.measure(unit, false); m.err != nil {
			return nil, m.err
		}
	}
	peakReset := resetPeakRSS()

	m := &measurement{}
	var tracedRequests int64 // tasks the platform executed in traced sections
	coldStarts, failures := s.e.plat.ColdStarts(), s.e.plat.Failures()
	timedStart := time.Now()
	if cfg.trace {
		for i := 0; i < tracePairs; i++ {
			m.add(s.w.measure(unit, false))
			before := s.e.plat.Requests()
			m.add(s.w.measure(unit, true))
			tracedRequests += s.e.plat.Requests() - before
		}
	} else {
		m = s.w.measure(s.w.timed(cfg.seconds), false)
	}
	timed := time.Since(timedStart)
	rss := peakRSSMB()
	if m.err != nil {
		return nil, m.err
	}
	coldStarts, failures = s.e.plat.ColdStarts()-coldStarts, s.e.plat.Failures()-failures

	problems := s.w.check()
	out := &outcome{
		Correct:   len(problems) == 0 && m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed + int64(len(problems)),
		Metrics:   map[string]metricValue{},
	}

	rate := func(s segment) float64 { return float64(s.tasks) / s.wall.Seconds() }
	cpuPerK := func(s segment) float64 { return float64(s.cpu) / 1e6 / float64(s.tasks) * 1000 }
	rates := m.perSegment(rate)
	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d  set-ups %d  warm-ups %d\n", cfg.workload, cfg.seed, procs, n, warmUps)
	fmt.Fprintf(w, "timed section %.2f s: %d segments, %d time-to-result samples, %d operations attempted, %d failed\n",
		timed.Seconds(), len(rates), len(m.runMS), out.Attempted, out.Failed)
	fmt.Fprintf(w, "proc.iter_spread_pct %.2f %%  (IQR/median of the segments' tasks per second: the host's noise)\n", spreadPct(rates))
	host := factorsOf(m.refs)
	fmt.Fprintf(w, "proc.host_factor %.4f  (median of %d host reference readings, both passes, over %g ms; each segment's wall time is divided, its rate multiplied, by the factor read before it)\n",
		host.wall, len(m.refs), refSerialMS+refParallelMS)
	fmt.Fprintf(w, "proc.host_cpu_factor %.4f  (the one-goroutine pass alone over %g ms; each segment's CPU time is divided by the factor read before it)\n", host.cpu, refSerialMS)
	if !peakReset {
		fmt.Fprintln(w, "VmHWM could not be reset: peak_rss_mb is the peak of the whole process, set-ups included")
	}
	for _, p := range problems {
		fmt.Fprintln(w, "FAILED CHECK:", p)
	}
	for i, s := range m.segs {
		fmt.Fprintf(w, "segment %3d  traced %-5v wall %9.2f ms  result %9.2f ms  cpu %9.2f ms  tasks %7d  mallocs %9d  gcs %d  host %.3f cpu %.3f\n",
			i, s.traced, float64(s.wall)/1e6, s.resultMS, float64(s.cpu)/1e6, s.tasks, s.mallocs, s.gcs, s.host.wall, s.host.cpu)
	}

	values := map[string]float64{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		s.w.ownLayers(values)
		for _, e := range runLadder(s.e, s.w, cfg.sz, values) {
			fmt.Fprintln(w, "FAILED RUNG:", e)
			out.Correct = false
			out.Failed++
		}
		procLayers(m, values)
		values["serverless.cold_starts"] = float64(coldStarts)
		values["serverless.failures"] = float64(failures)
		values["setup.generate_ms"] = median(genMS)
		values["setup.platform_start_ms"] = median(platMS)
		values["setup.first_run_ms"] = median(firstMS)
		if err := traceLayers(cfg, rec, tracedRequests, values, m, w); err != nil {
			return nil, err
		}
	} else {
		raw := map[string]float64{
			"setup_s":          median(setupS),
			"tasks_per_s":      median(rates),
			"run_ms_p50":       median(m.runMS),
			"cpu_ms_per_ktask": median(m.perSegment(cpuPerK)),
		}
		// Each set-up is scaled by the readings taken right after it,
		// each segment by those taken right before it: the host changes
		// speed within a run too.
		values["setup_s"] = median(setupAtRef)
		values["tasks_per_s"] = median(m.perSegment(func(s segment) float64 { return rate(s) * s.host.wall }))
		values["run_ms_p50"] = median(m.perSegment(func(s segment) float64 { return s.resultMS / s.host.wall }))
		values["cpu_ms_per_ktask"] = median(m.perSegment(func(s segment) float64 { return cpuPerK(s) / s.host.cpu }))
		for _, name := range []string{"setup_s", "tasks_per_s", "run_ms_p50", "cpu_ms_per_ktask"} {
			fmt.Fprintf(w, "raw.%-34s %14.4f  (as timed, before the host factor)\n", name, raw[name])
		}
		values["allocs_per_task"] = median(m.perSegment(func(s segment) float64 { return float64(s.mallocs) / float64(s.tasks) }))
		values["alloc_kb_per_task"] = median(m.perSegment(func(s segment) float64 { return float64(s.bytes) / 1024 / float64(s.tasks) }))
		values["peak_rss_mb"] = rss
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		fmt.Fprintf(w, "%-38s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
	return out, nil
}

// procLayers are the process-wide figures of the untraced segments.
func procLayers(m *measurement, out map[string]float64) {
	var gcs, pause, tasks float64
	for _, s := range m.segs {
		if !s.traced {
			gcs += float64(s.gcs)
			pause += float64(s.pauseNs)
			tasks += float64(s.tasks)
		}
	}
	if tasks > 0 {
		out["proc.gc_cycles_per_ktask"] = gcs / tasks * 1000
	}
	out["proc.gc_pause_ms"] = pause / 1e6
	out["proc.run_ms_p75"] = quantile(m.runMS, 0.75)
	host := factorsOf(m.refs)
	out["proc.host_factor"] = host.wall
	out["proc.host_cpu_factor"] = host.cpu
	out["proc.iter_spread_pct"] = spreadPct(m.perSegment(func(s segment) float64 { return float64(s.tasks) / s.wall.Seconds() }))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["proc.live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	out["proc.goroutines_end"] = float64(runtime.NumGoroutine())
}

// traceLayers turns the recorded spans and wire counts into per-layer
// metrics, prints the span table and writes the spans out.
func traceLayers(cfg config, rec *recorder, tracedRequests int64, out map[string]float64, m *measurement, w io.Writer) error {
	spans := rec.finish()
	dur, self := byName(spans)
	// Per task the platform executed, so a batch of 512 counts 512 and
	// a run served from the memo cache, which posts nothing, counts 0.
	if n := float64(tracedRequests); n > 0 {
		out["wfm.posts_per_task"] = float64(rec.posts.Load()) / n
		out["wfm.req_bytes_per_task"] = float64(rec.reqBytes.Load()) / n
		out["wfm.resp_bytes_per_task"] = float64(rec.respBytes.Load()) / n
	}
	out["wfm.rtt_us_p50"] = median(dur["wfm.post"]) / 1e3
	// A post's self time is its round trip minus the handler span it
	// caused: what the wire, the HTTP stack and the queues took.
	out["wfm.wire_us_p50"] = median(self["wfm.post"]) / 1e3
	out["serverless.handler_us_p50"] = median(dur["serverless.handle"]) / 1e3
	// A run's self time is the part of it with no request in flight:
	// prologue, epilogue and gaps.
	out["wfm.uncovered_ms"] = median(self["wfm.run"]) / 1e6
	out["trace.spans"] = float64(len(spans))
	if base := median(m.runMS); base > 0 && len(m.tracedMS) > 0 {
		out["trace.overhead_pct"] = 100 * (median(m.tracedMS) - base) / base
	}

	fmt.Fprintf(w, "%-20s %9s %12s %12s %12s\n", "span", "count", "p50 us", "total ms", "self ms")
	for _, name := range []string{"bench.iteration", "wfm.run", "wfm.post", "serverless.handle", "journal.open", "journal.close", "memo.open", "memo.close", "wfmd.submit", "wfmd.wait"} {
		if d := dur[name]; len(d) > 0 {
			fmt.Fprintf(w, "%-20s %9d %12.1f %12.2f %12.2f\n", name, len(d), median(d)/1e3, sum(d)/1e6, sum(self[name])/1e6)
		}
	}
	path := cfg.traceOut
	if path == "" {
		path = filepath.Join("bench_out", cfg.workload+".trace.jsonl")
	}
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "%d spans written to %s\n", len(spans), path)
	return nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
