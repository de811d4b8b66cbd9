// Federation: the paper's future-work "multi-cluster invocation
// scenarios" (Section VII). Two independent serverless clusters — each
// with its own nodes and autoscaler, sharing only the drive — sit behind
// a federation router (router.go) that the workflow manager targets like
// a single platform, because behind the shared function endpoint the
// router is one more wfbench.Executor. The dense Blast burst spreads across both clusters, halving
// the per-cluster scaling pressure.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"

	"wfserverless/internal/cluster"
	"wfserverless/internal/serverless"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/translator"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfgen"
	"wfserverless/internal/wfm"
)

const timeScale = 0.02

func startCluster(name string, drive sharedfs.Drive) (*serverless.Platform, error) {
	clus := cluster.New(cluster.NewNode(cluster.NodeSpec{
		Name: name, Cores: 48, MemBytes: 192 << 30,
		IdleWatts: 120, MaxWatts: 520,
	}))
	p, err := serverless.New(serverless.Options{
		Cluster:           clus,
		Drive:             drive,
		TimeScale:         timeScale,
		ColdStart:         2,
		AutoscalePeriod:   1,
		StableWindow:      6,
		PodOverheadMem:    80 << 20,
		WorkerOverheadMem: 64 << 20,
		InputWait:         30,
	})
	if err != nil {
		return nil, err
	}
	if _, err := p.Start(); err != nil {
		return nil, err
	}
	err = p.Apply(serverless.ServiceConfig{
		Name: "wfbench", Workers: 10,
		CPURequestPerWorker: 0.5, MemRequestPerWorker: 64 << 20,
	})
	if err != nil {
		p.Stop()
		return nil, err
	}
	return p, nil
}

func main() {
	drive := sharedfs.NewMem()
	east, err := startCluster("east", drive)
	if err != nil {
		log.Fatal(err)
	}
	defer east.Stop()
	west, err := startCluster("west", drive)
	if err != nil {
		log.Fatal(err)
	}
	defer west.Stop()

	router, err := NewRouter(RoundRobin,
		Member{Name: "east", Platform: east},
		Member{Name: "west", Platform: west},
	)
	if err != nil {
		log.Fatal(err)
	}
	front, err := wfbench.ListenLoopback(wfbench.NewEndpoint(router))
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()
	url := front.URL()
	fmt.Printf("federation router at %s over clusters east + west\n\n", url)

	w, err := wfgen.Generate(wfgen.Spec{Recipe: "blast", NumTasks: 200, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	kn, err := translator.Knative(w, translator.KnativeOptions{IngressURL: url, Workdir: "shared"})
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := wfm.New(wfm.Options{
		Drive: drive, TimeScale: timeScale, PhaseDelay: 1, InputWait: 30, MaxParallel: 512,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := mgr.Run(context.Background(), kn)
	if err != nil {
		log.Fatal(err)
	}

	sent := router.Sent()
	fmt.Printf("workflow %s: makespan %.1f s nominal\n", res.Workflow, res.Makespan)
	fmt.Printf("  east served %d invocations (%d cold starts)\n", east.Requests(), east.ColdStarts())
	fmt.Printf("  west served %d invocations (%d cold starts)\n", west.Requests(), west.ColdStarts())
	fmt.Printf("  router split: %v\n", sent)
	fmt.Println("\nThe burst is shared, so each cluster scales to roughly half the pods a")
	fmt.Println("single cluster would need — the multi-cluster direction of Section VII.")
}
