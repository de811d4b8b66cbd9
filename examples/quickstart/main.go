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

	"wfserverless/internal/core"
	"wfserverless/internal/experiments"
	"wfserverless/internal/metrics"
	"wfserverless/internal/wfm"
)

func main() {
	// The paper's preferred serverless setup: Kn10wNoPM — 10 workers
	// per pod, no persistent memory (Section V-B).
	spec, err := experiments.ByID(experiments.Kn10wNoPM)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := experiments.SessionConfig(spec, experiments.DefaultTunables())
	if err != nil {
		log.Fatal(err)
	}
	session, err := core.NewSession(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	fmt.Printf("serverless platform up at %s (WfBench service applied)\n\n", session.URL())

	// Generate a 100-task Blast workflow and run it, sampled at the
	// paper's 1 Hz (nominal).
	if err := session.StartSampling(); err != nil {
		log.Fatal(err)
	}
	res, err := session.RunRecipe(context.Background(), "blast", 100, 42)
	session.StopSampling()
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

	s := session.Sampler()
	fmt.Printf("\ntelemetry (PCP-style 1 Hz sampling):\n")
	fmt.Printf("  power:  %.1f W mean\n", s.MeanOf(metrics.MetricPower))
	fmt.Printf("  cpu:    %.1f cores mean provisioned, %.1f busy\n",
		s.MeanOf(metrics.MetricCPUReserved), s.MeanOf(metrics.MetricCPUUser))
	fmt.Printf("  memory: %.2f GB mean resident\n", s.MeanOf(metrics.MetricMemUsed)/float64(1<<30))
	fmt.Printf("  pods:   %.1f mean, %.0f peak (scale-to-zero after the burst)\n",
		s.MeanOf(metrics.MetricPodsRunning), s.MaxOf(metrics.MetricPodsRunning))
	fmt.Printf("  cold starts: %d\n", session.Platform().ColdStarts())
}
