// Hybrid: the paper's future-work proposal — "the optimal strategy for
// complex workflows might be combining executions on serverless and
// bare-metal local containers for different tasks or groups of tasks".
// This example provisions BOTH platforms in one session and maps each
// function to a platform by its category: the dense, identical-function
// burst goes to serverless (where it saves resources) while the
// latency-sensitive serial stages run on warm local containers.
//
//	go run ./examples/hybrid
package main

import (
	"context"
	"fmt"
	"log"

	"wfserverless/internal/core"
	"wfserverless/internal/experiments"
	"wfserverless/internal/metrics"
	"wfserverless/internal/wfformat"
)

func main() {
	tn := experiments.DefaultTunables()
	knSpec, _ := experiments.ByID(experiments.Kn10wNoPM)
	cfg, err := experiments.SessionConfig(knSpec, tn)
	if err != nil {
		log.Fatal(err)
	}
	// A small always-on container pool for the serial stages, alongside
	// the autoscaling serverless platform: two pods held at fixed scale,
	// two cores each.
	cfg.Secondary = &core.PlatformConfig{
		Kind:                core.KindLocal,
		Workers:             4,
		MinScale:            2,
		MaxScale:            2,
		CPURequestPerWorker: 0.5,
		PodOverheadMem:      tn.PodOverheadMem,
		WorkerOverheadMem:   tn.WorkerOverheadMem,
		PodOverheadCPU:      tn.PodOverheadCPU,
	}
	session, err := core.NewSession(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	fmt.Printf("serverless at %s, local containers at %s\n\n", session.URL(), session.SecondaryURL())

	w, err := session.GenerateWorkflow("blast", 150, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Serial pre/post-processing stays local; the blastall burst is
	// serverless.
	pick := func(t *wfformat.Task) string {
		if t.Category == "blastall" {
			return core.KindKnative
		}
		return core.KindLocal
	}

	if err := session.StartSampling(); err != nil {
		log.Fatal(err)
	}
	res, err := session.RunHybrid(context.Background(), w, pick)
	session.StopSampling()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hybrid %s: makespan %.1f s nominal\n", res.Workflow, res.Makespan)
	fmt.Printf("  serverless handled %d invocations (%d cold starts)\n",
		session.Platform().Requests(), session.Platform().ColdStarts())
	fmt.Printf("  local containers handled %d invocations\n", session.Secondary().Requests())
	s := session.Sampler()
	fmt.Printf("  mean provisioned CPU %.1f cores, mean resident memory %.2f GB, mean power %.1f W\n",
		s.MeanOf(metrics.MetricCPUReserved),
		s.MeanOf(metrics.MetricMemUsed)/float64(1<<30),
		s.MeanOf(metrics.MetricPower))
	fmt.Println("\nThe serial split/cat stages never pay a cold start, while the burst")
	fmt.Println("rides the autoscaler and releases its resources afterwards.")
}
