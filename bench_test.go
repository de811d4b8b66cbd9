// Package wfserverless holds the top-level benchmark harness: one
// benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates the corresponding rows/series (printed once per
// run) on the in-process reproduction of the paper's testbed.
//
// Benchmark sizes are scaled down so `go test -bench=.` completes in
// about a minute; cmd/experiments runs the same suites at paper scale.
package wfserverless

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wfserverless/internal/cluster"
	"wfserverless/internal/experiments"
	"wfserverless/internal/memo"
	"wfserverless/internal/recipes"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

// benchSizes keeps bench iterations short; cmd/experiments raises them.
var benchSizes = experiments.Sizes{Small: 30, Large: 60, Huge: 100}

const benchSeed = 1

var printOnce sync.Once

// benchTunables returns the calibrated defaults.
func benchTunables() experiments.Tunables {
	return experiments.DefaultTunables()
}

// BenchmarkTable1Design regenerates the Table I experiment matrix: 98
// fine-grained + 42 coarse-grained = 140 experiments.
func BenchmarkTable1Design(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		d := experiments.Design(recipes.Names())
		total = len(d)
		if total != 140 {
			b.Fatalf("design has %d experiments, want 140", total)
		}
	}
	b.ReportMetric(float64(total), "experiments")
}

// BenchmarkTable2Paradigms walks the Table II paradigm catalog and maps
// every paradigm onto a platform configuration.
func BenchmarkTable2Paradigms(b *testing.B) {
	tn := benchTunables()
	for i := 0; i < b.N; i++ {
		for _, s := range experiments.All() {
			if _, _, err := experiments.Configure(s, tn); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(experiments.All())), "paradigms")
}

// BenchmarkFigure3Characterization regenerates the workflow
// characterization: all seven applications' DAG structure, functions per
// phase, and functions per type.
func BenchmarkFigure3Characterization(b *testing.B) {
	var chars []experiments.Characterization
	for i := 0; i < b.N; i++ {
		var err error
		chars, err = experiments.Figure3(benchSizes.Large, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce.Do(func() {})
	if testing.Verbose() {
		experiments.WriteCharacterization(os.Stdout, chars)
	}
	b.ReportMetric(float64(len(chars)), "workflows")
}

// BenchmarkGenerateSuite measures generating the full 7-recipe benchmark
// suite (the WfGen path of the framework).
func BenchmarkGenerateSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		insts, err := wfgen.GenerateSuite(wfgen.SuiteSpec{
			Sizes: []int{benchSizes.Small, benchSizes.Large}, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(insts) != 14 {
			b.Fatalf("suite = %d instances", len(insts))
		}
	}
}

// runFigure executes a figure suite once per iteration and prints its
// rows on the last iteration.
func runFigure(b *testing.B, name string,
	f func(context.Context, experiments.Sizes, int64, experiments.Tunables) (*experiments.Suite, error)) {
	b.Helper()
	tn := benchTunables()
	var suite *experiments.Suite
	for i := 0; i < b.N; i++ {
		var err error
		suite, err = f(context.Background(), benchSizes, benchSeed, tn)
		if err != nil {
			b.Fatal(err)
		}
		for cell, cellErr := range suite.Errors {
			b.Fatalf("%s cell %s: %v", name, cell, cellErr)
		}
	}
	experiments.WriteTable(os.Stdout, suite)
	b.ReportMetric(float64(len(suite.Measurements)), "cells")
}

// BenchmarkFigure4KnativeSetups regenerates Figure 4: Blast and
// Epigenomics under the three fine-grained serverless setups (Kn1wPM,
// Kn1wNoPM, Kn10wNoPM). Expected shape: 10wNoPM is fastest with the
// lowest memory; CPU usage is not significantly different.
func BenchmarkFigure4KnativeSetups(b *testing.B) {
	runFigure(b, "Figure 4", experiments.Figure4)
}

// BenchmarkFigure5LocalContainerSetups regenerates Figure 5: the four
// local-container setups. Expected shape: NoCR improves power and CPU
// but neither execution time nor memory; PM raises memory.
func BenchmarkFigure5LocalContainerSetups(b *testing.B) {
	runFigure(b, "Figure 5", experiments.Figure5)
}

// BenchmarkFigure6CoarseGrained regenerates Figure 6: whole-machine
// coarse-grained serverless vs local containers on all seven workflows
// at three sizes. Expected shape: execution times converge and the
// serverless resource advantage disappears.
func BenchmarkFigure6CoarseGrained(b *testing.B) {
	runFigure(b, "Figure 6", experiments.Figure6)
}

// BenchmarkFigure7ServerlessVsLC regenerates the headline Figure 7:
// Kn10wNoPM vs LC10wNoPM on all seven workflows, with the paper's
// reduction percentages printed (paper: CPU -78.11%, memory -73.92%,
// power comparable, group-1 slower, group-2 narrower).
func BenchmarkFigure7ServerlessVsLC(b *testing.B) {
	tn := benchTunables()
	var suite *experiments.Suite
	for i := 0; i < b.N; i++ {
		var err error
		suite, err = experiments.Figure7(context.Background(), benchSizes, benchSeed, tn)
		if err != nil {
			b.Fatal(err)
		}
	}
	experiments.WriteTable(os.Stdout, suite)
	reds := experiments.Reductions(suite)
	fmt.Println("serverless vs local containers:")
	for _, r := range reds {
		fmt.Printf("  %-12s %4d tasks (group %d): time x%.2f, power x%.2f, cpu -%.1f%%, mem -%.1f%%\n",
			r.Recipe, r.Size, r.Group, r.TimeRatio, r.PowerRatio, r.CPUPct, r.MemPct)
	}
	cpu, mem := experiments.MaxReductions(reds)
	fmt.Printf("headline: up to CPU -%.2f%%, memory -%.2f%% (paper: 78.11%%, 73.92%%)\n", cpu, mem)
	b.ReportMetric(cpu, "cpu_reduction_pct")
	b.ReportMetric(mem, "mem_reduction_pct")
}

// BenchmarkConcurrentWorkflows exercises the paper's Section VII
// direction: three workflows submitted at once to one serverless
// platform; the reported interleave factor (concurrent makespan over
// summed solo makespans) shows the autoscaler overlapping them.
func BenchmarkConcurrentWorkflows(b *testing.B) {
	tn := benchTunables()
	spec, err := experiments.ByID(experiments.Kn10wNoPM)
	if err != nil {
		b.Fatal(err)
	}
	var interleave float64
	for i := 0; i < b.N; i++ {
		var wfs []*wfformat.Workflow
		for _, recipe := range []string{"blast", "seismology", "srasearch"} {
			w, err := wfgen.Generate(wfgen.Spec{Recipe: recipe, NumTasks: benchSizes.Small, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			wfs = append(wfs, w)
		}
		m, err := experiments.RunConcurrent(context.Background(), spec, wfs, tn)
		if err != nil {
			b.Fatal(err)
		}
		interleave = m.Interleave
	}
	b.ReportMetric(interleave, "interleave_ratio")
}

// ablationCell runs Blast at the large bench size on Kn10wNoPM under
// modified tunables and returns the measurement.
func ablationCell(b *testing.B, mutate func(*experiments.Tunables)) *experiments.Measurement {
	b.Helper()
	tn := benchTunables()
	if mutate != nil {
		mutate(&tn)
	}
	spec, err := experiments.ByID(experiments.Kn10wNoPM)
	if err != nil {
		b.Fatal(err)
	}
	w, err := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: benchSizes.Large, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	m, err := experiments.RunWorkflow(context.Background(), spec, w, tn)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationColdStart quantifies the cold-start contribution to
// the serverless slowdown (DESIGN.md design-choice ablation).
func BenchmarkAblationColdStart(b *testing.B) {
	for _, cs := range []float64{0, 2, 8} {
		b.Run(fmt.Sprintf("coldstart_%vs", cs), func(b *testing.B) {
			var m *experiments.Measurement
			for i := 0; i < b.N; i++ {
				m = ablationCell(b, func(tn *experiments.Tunables) { tn.Platform.ColdStart = cs })
			}
			b.ReportMetric(m.MakespanS, "makespan_s")
		})
	}
}

// BenchmarkAblationRampPolicy contrasts the KPA-style doubling ramp
// against instant scale-up.
func BenchmarkAblationRampPolicy(b *testing.B) {
	for _, instant := range []bool{false, true} {
		name := "doubling"
		if instant {
			name = "instant"
		}
		b.Run(name, func(b *testing.B) {
			var m *experiments.Measurement
			for i := 0; i < b.N; i++ {
				m = ablationCell(b, func(tn *experiments.Tunables) { tn.Platform.InstantScaleUp = instant })
			}
			b.ReportMetric(m.MakespanS, "makespan_s")
			b.ReportMetric(float64(m.ColdStarts), "cold_starts")
		})
	}
}

// BenchmarkAblationStableWindow shows the resource/time trade-off of the
// scale-down window: longer windows keep pods warm (faster, more
// provisioned CPU), shorter windows reclaim aggressively.
func BenchmarkAblationStableWindow(b *testing.B) {
	for _, win := range []float64{1, 6, 30} {
		b.Run(fmt.Sprintf("window_%vs", win), func(b *testing.B) {
			var m *experiments.Measurement
			for i := 0; i < b.N; i++ {
				m = ablationCell(b, func(tn *experiments.Tunables) { tn.Platform.StableWindow = win })
			}
			b.ReportMetric(m.MeanCPUCores, "mean_cpu_cores")
			b.ReportMetric(m.MakespanS, "makespan_s")
		})
	}
}

// invocationBenchWorkflow builds a root -> (n-1) leaves fan-out whose
// tasks carry near-zero simulated work, so the measured cost is the
// invocation pipeline itself: manager dispatch, HTTP round trip,
// platform routing/decoding, and shared-drive output publication.
func invocationBenchWorkflow(b *testing.B, n int, ingressURL string) *wfformat.Workflow {
	b.Helper()
	w := wfformat.New("invocation-throughput")
	apiURL := ingressURL + "/wfbench/wfbench"
	mk := func(name string, inputs []string) *wfformat.Task {
		out := "out_" + name
		files := []wfformat.File{{Link: wfformat.LinkOutput, Name: out, SizeInBytes: 1}}
		for _, in := range inputs {
			files = append(files, wfformat.File{Link: wfformat.LinkInput, Name: in, SizeInBytes: 1})
		}
		return &wfformat.Task{
			Name: name,
			Type: wfformat.TypeCompute,
			Command: wfformat.Command{
				Program: "wfbench",
				Arguments: []wfformat.Argument{{
					Name:       name,
					PercentCPU: 0.5,
					CPUWork:    0.001,
					Out:        map[string]int64{out: 1},
					Inputs:     inputs,
				}},
				APIURL: apiURL,
			},
			Files:            files,
			RuntimeInSeconds: 0.001,
			Cores:            1,
			Category:         "synthetic",
		}
	}
	if err := w.AddTask(mk("root", nil)); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < n; i++ {
		// Zero-pad past the largest fan-out so lexicographic order matches
		// creation order and Link's sorted-append fast path always hits.
		leaf := mk(fmt.Sprintf("leaf_%06d", i), []string{"out_root"})
		if err := w.AddTask(leaf); err != nil {
			b.Fatal(err)
		}
		if err := w.Link("root", leaf.Name); err != nil {
			b.Fatal(err)
		}
	}
	return w
}

// BenchmarkInvocationThroughput measures end-to-end invocations/sec
// against the in-process serverless platform over real loopback HTTP:
// a 512-task fan-out in dependency mode, pods pre-warmed so the number
// isolates the invocation hot path rather than autoscaling.
func BenchmarkInvocationThroughput(b *testing.B) {
	const tasks = 512
	drive := sharedfs.NewMem()
	p, err := serverless.New(serverless.Options{
		Cluster:        cluster.PaperTestbed(),
		Drive:          drive,
		TimeScale:      0.001,
		InstantScaleUp: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	url, err := p.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	if err := p.Apply(serverless.ServiceConfig{
		Name: "wfbench", Workers: 16, MinScale: 8, MaxScale: 32,
	}); err != nil {
		b.Fatal(err)
	}
	m, err := wfm.New(wfm.Options{
		Drive:       drive,
		TimeScale:   0.001,
		InputWait:   5000,
		MaxParallel: 64,
		Scheduling:  wfm.ScheduleDependency,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := invocationBenchWorkflow(b, tasks, url)
	b.ReportAllocs()
	b.ResetTimer()
	var totalWall time.Duration
	for i := 0; i < b.N; i++ {
		res, err := m.Run(context.Background(), w)
		if err != nil {
			b.Fatal(err)
		}
		totalWall += res.Wall
	}
	b.StopTimer()
	b.ReportMetric(float64(tasks)*float64(b.N)/totalWall.Seconds(), "invocations/s")
}

// BenchmarkInvocationThroughputBatched is the headline number for the
// batched invocation pipeline: a 100k-task fan-out in dependency mode
// with Options.Batching on, against the same in-process platform over
// real loopback HTTP. Ready leaves coalesce into /invoke-batch POSTs
// of up to 512 pre-encoded frames, so the per-task HTTP round trip —
// the wall the unbatched 512-task benchmark above runs into at ~6k
// invocations/s — disappears from the hot path. The acceptance target
// was >=10x the unbatched invocations/s measured at PR 3 (~6k).
func BenchmarkInvocationThroughputBatched(b *testing.B) {
	const tasks = 100_000
	drive := sharedfs.NewMem()
	p, err := serverless.New(serverless.Options{
		Cluster:        cluster.PaperTestbed(),
		Drive:          drive,
		TimeScale:      0.001,
		InstantScaleUp: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	url, err := p.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	if err := p.Apply(serverless.ServiceConfig{
		Name: "wfbench", Workers: 32, MinScale: 8, MaxScale: 64,
	}); err != nil {
		b.Fatal(err)
	}
	m, err := wfm.New(wfm.Options{
		Drive:     drive,
		TimeScale: 0.001,
		InputWait: 5000,
		// Far more submitters than the batch bound, so batches seal on
		// count rather than linger and the dispatcher stays saturated.
		MaxParallel: 2048,
		Scheduling:  wfm.ScheduleDependency,
		Batching: wfm.BatchOptions{
			Enabled:  true,
			MaxTasks: 512,
			Linger:   2, // nominal seconds; 2ms wall at this TimeScale
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	w := invocationBenchWorkflow(b, tasks, url)
	b.ReportAllocs()
	b.ResetTimer()
	var totalWall time.Duration
	for i := 0; i < b.N; i++ {
		res, err := m.Run(context.Background(), w)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Failed) != 0 {
			b.Fatalf("failed tasks: %d", len(res.Failed))
		}
		totalWall += res.Wall
	}
	b.StopTimer()
	b.ReportMetric(float64(tasks)*float64(b.N)/totalWall.Seconds(), "invocations/s")
}

// BenchmarkMemoizedRerun is the headline number for content-addressed
// memoization: an unchanged 100k-task re-run served entirely from the
// memo cache. The setup executes the workflow once cold through the
// batched pipeline to populate the cache, then each timed iteration
// re-runs the identical workflow on the same drive + cache: every task
// resolves to a fingerprint hit with verified outputs and zero HTTP
// invocations, so the wall collapses to the probe (one SHA-256 per
// task) plus scheduling. The acceptance target is a >=20x speedup over
// the cold run, reported as the "speedup" metric; "tasks/s" is the
// gated regression metric.
func BenchmarkMemoizedRerun(b *testing.B) {
	const tasks = 100_000
	drive := sharedfs.NewMem()
	p, err := serverless.New(serverless.Options{
		Cluster:        cluster.PaperTestbed(),
		Drive:          drive,
		TimeScale:      0.001,
		InstantScaleUp: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	url, err := p.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	if err := p.Apply(serverless.ServiceConfig{
		Name: "wfbench", Workers: 32, MinScale: 8, MaxScale: 64,
	}); err != nil {
		b.Fatal(err)
	}
	cache, err := memo.Open(filepath.Join(b.TempDir(), "memo.cache"))
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	m, err := wfm.New(wfm.Options{
		Drive:       drive,
		TimeScale:   0.001,
		InputWait:   5000,
		MaxParallel: 2048,
		Scheduling:  wfm.ScheduleDependency,
		Batching: wfm.BatchOptions{
			Enabled:  true,
			MaxTasks: 512,
			Linger:   2,
		},
		Memoize: cache,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := invocationBenchWorkflow(b, tasks, url)

	// Cold run: every task misses, executes, and lands in the cache.
	// Its wall time is the baseline the speedup metric divides by.
	cold, err := m.Run(context.Background(), w)
	if err != nil {
		b.Fatal(err)
	}
	if len(cold.Failed) != 0 {
		b.Fatalf("cold run failed tasks: %d", len(cold.Failed))
	}
	if cold.Memo == nil || cold.Memo.Misses != tasks {
		b.Fatalf("cold run memo state: %+v", cold.Memo)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var totalWall time.Duration
	for i := 0; i < b.N; i++ {
		res, err := m.Run(context.Background(), w)
		if err != nil {
			b.Fatal(err)
		}
		if res.Memo == nil || res.Memo.Hits != tasks {
			b.Fatalf("re-run not fully memoized: %+v", res.Memo)
		}
		totalWall += res.Wall
	}
	b.StopTimer()
	b.ReportMetric(float64(tasks)*float64(b.N)/totalWall.Seconds(), "tasks/s")
	b.ReportMetric(cold.Wall.Seconds()/(totalWall.Seconds()/float64(b.N)), "speedup")
}
