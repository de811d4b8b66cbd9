package wfbench

import (
	"context"
	"testing"

	"wfserverless/internal/sharedfs"
)

func BenchmarkExecuteSim(b *testing.B) {
	bench, err := New(Config{Drive: sharedfs.NewMem(), TimeScale: 0.0001})
	if err != nil {
		b.Fatal(err)
	}
	w := bench.NewWorker()
	r := &Request{
		Name: "f", PercentCPU: 0.9, CPUWork: 100, MemBytes: 1 << 20,
		Out: map[string]int64{"f_out": 64},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Execute(context.Background(), r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBurnEngineShortSlice(b *testing.B) {
	e := BurnEngine{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(context.Background(), 100000, 0.5); err != nil { // 100µs
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceThroughput(b *testing.B) {
	bench, err := New(Config{Drive: sharedfs.NewMem(), TimeScale: 0.00001})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := NewService(bench, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		r := &Request{
			Name: "p", PercentCPU: 0.9, CPUWork: 100,
			Out: map[string]int64{"p_out": 1},
		}
		for pb.Next() {
			if _, err := svc.Invoke(context.Background(), "", r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
