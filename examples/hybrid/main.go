// Hybrid: the paper's future-work proposal — "the optimal strategy for
// complex workflows might be combining executions on serverless and
// bare-metal local containers for different tasks or groups of tasks".
// This example runs BOTH paradigms as two services of one platform — the
// autoscaling WfBench service and a small pool held at fixed scale — and
// maps each function to a service by its category: the dense,
// identical-function burst goes to serverless (where it saves resources)
// while the latency-sensitive serial stages run on warm local containers.
//
//	go run ./examples/hybrid
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"wfserverless/internal/experiments"
	"wfserverless/internal/serverless"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
)

func main() {
	knSpec, _ := experiments.ByID(experiments.Kn10wNoPM)
	tb, err := experiments.NewTestbed(knSpec, experiments.DefaultTunables())
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	// A small always-on container pool for the serial stages, beside the
	// autoscaling service: two pods held at fixed scale, two cores each.
	if err := tb.Platform.Apply(serverless.ServiceConfig{
		Name: "local", Workers: 4, MinScale: 2, MaxScale: 2, CPURequestPerWorker: 0.5,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform at %s: services wfbench (autoscaling) and local (fixed scale)\n\n", tb.Platform.URL())

	w, err := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: 150, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	// Serial pre/post-processing stays local; the blastall burst is
	// serverless.
	tw, err := translator.Knative(w, translator.KnativeOptions{
		IngressURL: tb.Platform.URL(),
		Workdir:    "shared",
		Service: func(t *wfformat.Task) string {
			if t.Category == "blastall" {
				return "wfbench"
			}
			return "local"
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	win := tb.Cluster.Measure()
	res, err := tb.Manager.Run(context.Background(), tw)
	mean := win.Close().Mean
	if err != nil {
		log.Fatal(err)
	}

	served := map[string]int{}
	for _, tr := range res.Tasks {
		if tr.Response != nil {
			svc, _, _ := strings.Cut(tr.Response.Pod, "-pod-")
			served[svc]++
		}
	}
	fmt.Printf("hybrid %s: makespan %.1f s nominal\n", res.Workflow, res.Makespan)
	fmt.Printf("  serverless handled %d invocations (%d cold starts)\n", served["wfbench"], tb.Platform.ColdStarts())
	fmt.Printf("  local containers handled %d invocations\n", served["local"])
	fmt.Printf("  mean provisioned CPU %.1f cores, mean resident memory %.2f GB, mean power %.1f W\n",
		mean.ReservedCores, mean.UsedMem/float64(1<<30), mean.PowerWatts)
	fmt.Println("\nThe serial split/cat stages never pay a cold start, while the burst")
	fmt.Println("rides the autoscaler and releases its resources afterwards.")
}
