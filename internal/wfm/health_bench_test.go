package wfm

import (
	"context"
	"testing"
	"time"

	"wfserverless/internal/sharedfs"
)

// BenchmarkHealthOverheadDrain measures what the run-health plane
// costs on the drain path: a 10k-wide fan-out executed with dependency
// scheduling against a zero-delay stub, with the plane absent and
// present. Run with -benchmem: the "off" case must match the plain
// manager exactly — with Options.Health nil the attempt path has no
// health layer and the per-task hooks are nil-receiver calls, so the
// hot path adds zero allocations per task. The "on" case prices
// the full pipeline: per-attempt tracker bookkeeping, P² quantile
// updates, and the straggler watchdog.
func BenchmarkHealthOverheadDrain(b *testing.B) {
	const width = 10_000
	cases := []struct {
		name   string
		health func() *HealthOptions
	}{
		{"off", func() *HealthOptions { return nil }},
		{"on", func() *HealthOptions { return &HealthOptions{} }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			drive := sharedfs.NewMem()
			srv := benchStub(b, drive, 0)
			w := fanoutWorkflow(b, width, srv.URL)
			m, err := New(Options{
				Drive:       drive,
				TimeScale:   0.002,
				InputWait:   30,
				MaxParallel: 256,
				Scheduling:  ScheduleDependency,
				Health:      tc.health(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				res, err := m.Run(context.Background(), w)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Wall
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "wall_ms/run")
			b.ReportMetric(float64(width+2)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}
