// Quickstart: generate a scientific workflow with the WfCommons-derived
// recipes, deploy WfBench as a Service on the in-process Knative-like
// platform, execute the workflow through the serverless workflow
// manager, and print the measured execution time and resource usage.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"wfserverless/internal/experiments"
	"wfserverless/internal/metrics"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

func main() {
	// The paper's preferred serverless setup: Kn10wNoPM — 10 workers
	// per pod, no persistent memory (Section V-B).
	spec, err := experiments.ByID(experiments.Kn10wNoPM)
	if err != nil {
		log.Fatal(err)
	}
	tb, err := experiments.NewTestbed(spec, experiments.DefaultTunables())
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	fmt.Printf("serverless platform up at %s (WfBench service applied)\n\n", tb.Platform.URL())

	// Generate a 100-task Blast workflow and run it, sampled at the
	// paper's 1 Hz (nominal).
	w, err := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: 100, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	if err := tb.Sampler.Start(); err != nil {
		log.Fatal(err)
	}
	res, err := tb.Run(context.Background(), w)
	tb.Sampler.Stop()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workflow:   %s\n", res.Workflow)
	fmt.Printf("functions:  %d across %d phases\n", len(res.Tasks)-2, len(res.Phases)-2)
	fmt.Printf("makespan:   %.1f s nominal (%v wall at the experiment time scale)\n\n",
		res.Makespan, res.Wall)

	for _, ps := range wfm.PhaseBreakdown(res) {
		fmt.Printf("  phase %-2d  %4d function(s)  span %v\n", ps.Phase, ps.Functions, ps.WallSpan)
	}

	s := tb.Sampler
	fmt.Printf("\ntelemetry (PCP-style 1 Hz sampling):\n")
	fmt.Printf("  power:  %.1f W mean\n", s.MeanOf(metrics.MetricPower))
	fmt.Printf("  cpu:    %.1f cores mean provisioned, %.1f busy\n",
		s.MeanOf(metrics.MetricCPUReserved), s.MeanOf(metrics.MetricCPUUser))
	fmt.Printf("  memory: %.2f GB mean resident\n", s.MeanOf(metrics.MetricMemUsed)/float64(1<<30))
	fmt.Printf("  pods:   %.1f mean, %.0f peak (scale-to-zero after the burst)\n",
		s.MeanOf(metrics.MetricPodsRunning), s.MaxOf(metrics.MetricPodsRunning))
	fmt.Printf("  cold starts: %d\n", tb.Platform.ColdStarts())
}
