package wfm

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"wfserverless/internal/memo"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// benchStub is stubService for benchmarks: executes WfBench requests
// against the drive after a fixed delay.
func benchStub(b *testing.B, drive sharedfs.Drive, delay time.Duration) *httptest.Server {
	b.Helper()
	srv := httptest.NewServer(wfbench.NewEndpoint(wfbench.NewStub(drive, delay)))
	srv.URL += "/wfbench" // what benchmarks hand out as the api_url
	b.Cleanup(srv.Close)
	return srv
}

// benchModes runs one workflow shape under both scheduling modes and
// reports wall time per execution. PhaseDelay 1 at TimeScale 0.002 puts
// a 2ms delay after every phase in phase mode — the dead time
// dependency mode exists to eliminate.
func benchModes(b *testing.B, build func(testing.TB, string) *wfformat.Workflow) {
	for _, mode := range []Scheduling{SchedulePhases, ScheduleDependency} {
		b.Run(mode.String(), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				drive := sharedfs.NewMem()
				srv := benchStub(b, drive, time.Millisecond)
				m, err := New(Options{
					Drive:      drive,
					TimeScale:  0.002,
					PhaseDelay: 1,
					InputWait:  5,
					Scheduling: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run(context.Background(), build(b, srv.URL))
				if err != nil {
					b.Fatal(err)
				}
				total += res.Wall
				srv.Close()
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "wall_ms/run")
		})
	}
}

// BenchmarkSchedulingDeepChain is the shape where phase barriers hurt
// most: 16 single-task phases, 15 inter-phase delays (30ms dead time at
// this TimeScale) that dependency mode eliminates entirely.
func BenchmarkSchedulingDeepChain(b *testing.B) {
	benchModes(b, func(tb testing.TB, url string) *wfformat.Workflow {
		return chainWorkflow(tb, 16, url)
	})
}

// BenchmarkSchedulingWideFanOut is the shape where phase mode is near
// optimal (3 phases, massive intra-phase parallelism): dependency mode
// must not regress it beyond the two eliminated delays.
func BenchmarkSchedulingWideFanOut(b *testing.B) {
	benchModes(b, func(tb testing.TB, url string) *wfformat.Workflow {
		return fanoutWorkflow(tb, 64, url)
	})
}

// BenchmarkSchedulingDiamond mixes joins (true barriers) with
// intra-diamond parallelism.
func BenchmarkSchedulingDiamond(b *testing.B) {
	benchModes(b, func(tb testing.TB, url string) *wfformat.Workflow {
		return diamondWorkflow(tb, 5, 8, url)
	})
}

// BenchmarkInvokeAllocs measures per-invocation allocations on the
// manager's HTTP hot path (run with -benchmem): the pre-rendered
// invocation plan — payload arena, request templates, pooled body
// readers and decode buffers — keeps the request-building side flat.
func BenchmarkInvokeAllocs(b *testing.B) {
	drive := sharedfs.NewMem()
	srv := benchStub(b, drive, 0)
	m, err := New(Options{Drive: drive, TimeScale: 1, InputWait: 1})
	if err != nil {
		b.Fatal(err)
	}
	p, err := newInvocationPlan([]*wfformat.Task{synthTask("bench", srv.URL+"/wfbench", nil)}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rs := m.newResilience(context.Background(), nil, time.Now(), &runState{bodies: allBodies(b, p)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.invoke(context.Background(), p, 0, rs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhaseDispatchAllocs measures a whole wide phase through Run
// in phase mode (run with -benchmem): the contiguous TaskResult block
// and pooled buffers cut per-task overhead on fan-out phases.
func BenchmarkPhaseDispatchAllocs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		drive := sharedfs.NewMem()
		srv := benchStub(b, drive, 0)
		m, err := New(Options{Drive: drive, TimeScale: 0.0005, InputWait: 5})
		if err != nil {
			b.Fatal(err)
		}
		w := fanoutWorkflow(b, 128, srv.URL)
		b.StartTimer()
		if _, err := m.Run(context.Background(), w); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		srv.Close()
		b.StartTimer()
	}
}

// BenchmarkMemoizedRerun is bench/'s memo_rerun in go test: a 100k-task
// fan-out re-run against a full memo cache, the cache opened per
// iteration as a new process would, the collection of the previous
// iteration's garbage outside the timer. It reports the median run in
// ms: the front half — compile, fingerprints, cache open and probe —
// is the whole run, since a re-run invokes nothing. The timed re-runs
// carry the pprof label window=rerun, so a CPU profile can leave out the
// cold run that fills the cache (make cpu-sites).
func BenchmarkMemoizedRerun(b *testing.B) {
	drive := sharedfs.NewMem()
	srv, _ := countingStub(b, drive)
	w := benchFanout(b, 100_000, srv.URL)
	path := filepath.Join(b.TempDir(), "memo.cache")
	run := func() *Result {
		cache, err := memo.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer cache.Close()
		m, err := New(Options{Drive: drive, TimeScale: 0.002, InputWait: 5, Scheduling: ScheduleDependency,
			MaxParallel: 2048, Batching: BatchOptions{Enabled: true, MaxTasks: 512}, Memoize: cache})
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(context.Background(), w)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	run() // the cold run fills the cache
	srv.Close()
	ms := make([]float64, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		start := time.Now()
		var res *Result
		pprof.Do(context.Background(), pprof.Labels("window", "rerun"), func(context.Context) { res = run() })
		ms = append(ms, float64(time.Since(start).Microseconds())/1e3)
		if res.Memo.Hits != w.Len() {
			b.Fatalf("re-run hit %d of %d tasks", res.Memo.Hits, w.Len())
		}
	}
	slices.Sort(ms)
	b.ReportMetric(ms[len(ms)/2], "median_ms")
}
