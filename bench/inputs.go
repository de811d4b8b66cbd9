package main

import (
	"fmt"
	"math/rand"
	"time"

	"wfserverless/internal/translator"
	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfgen"
)

// sizes are the input sizes of one run. The reference sizes are what
// BENCHMARK.json measures; the toy sizes let the tests cover every
// workload and the ladder in seconds.
type sizes struct {
	RecipeTasks   int           // tasks per recipe in recipes_http
	FanoutTasks   int           // tasks of the fan-out in fanout_batch_durable and memo_rerun
	ServicePool   int           // pre-generated workflows in service_small_runs
	ServiceFanout int           // mean width k of a service workflow (1 + 2k tasks)
	SampleTasks   int           // tasks a ladder rung samples from large inputs
	RungBudget    time.Duration // how long a ladder rung repeats its call
	RefDivisor    int           // the host reference does 1/RefDivisor of its work
}

var referenceSizes = sizes{RecipeTasks: 1500, FanoutTasks: 100_000, ServicePool: 64, ServiceFanout: 31, SampleTasks: 4096, RungBudget: 120 * time.Millisecond, RefDivisor: 1}

var toySizes = sizes{RecipeTasks: 40, FanoutTasks: 300, ServicePool: 8, ServiceFanout: 3, SampleTasks: 64, RungBudget: 2 * time.Millisecond, RefDivisor: 20}

var recipeNames = []string{"blast", "bwa", "cycles", "epigenomics", "genomes", "seismology", "srasearch"}

// recipeWorkflows generates the paper's seven applications and
// translates them for the platform, as the paper's Knative translator
// does. CPUWork is rescaled so that function time is negligible.
func recipeWorkflows(seed int64, tasks int, ingress string) ([]*wfformat.Workflow, error) {
	var out []*wfformat.Workflow
	for _, name := range recipeNames {
		w, err := wfgen.Generate(wfgen.Spec{Recipe: name, NumTasks: tasks, Seed: seed, CPUWork: 1})
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		w, err = translator.Knative(w, translator.KnativeOptions{IngressURL: ingress})
		if err != nil {
			return nil, fmt.Errorf("translate %s: %w", name, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// benchTask is one near-zero-work WfBench function publishing one
// output file and consuming the named inputs.
func benchTask(name string, outSize int64, inputs []wfformat.File, apiURL string) *wfformat.Task {
	out := "out_" + name
	files := append([]wfformat.File{{Link: wfformat.LinkOutput, Name: out, SizeInBytes: outSize}}, inputs...)
	names := make([]string, len(inputs))
	for i, in := range inputs {
		names[i] = in.Name
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
				Out:        map[string]int64{out: outSize},
				Inputs:     names,
			}},
			APIURL: apiURL,
		},
		Files:            files,
		RuntimeInSeconds: 0.001,
		Cores:            1,
		Category:         "synthetic",
	}
}

func inputOf(parent string, size int64) []wfformat.File {
	return []wfformat.File{{Link: wfformat.LinkInput, Name: "out_" + parent, SizeInBytes: size}}
}

// fanoutWorkflow is a single root with n-1 leaves. The seed sets the
// output sizes, which the correctness gate checks on the drive.
func fanoutWorkflow(seed int64, n int, apiURL string) (*wfformat.Workflow, error) {
	r := rand.New(rand.NewSource(seed))
	w := wfformat.New(fmt.Sprintf("fanout-%d", n))
	rootSize := 1 + r.Int63n(4096)
	if err := w.AddTask(benchTask("root", rootSize, nil, apiURL)); err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		// Zero-padded so name order is creation order, which keeps
		// wfformat.Link on its sorted-append path.
		leaf := fmt.Sprintf("leaf_%06d", i)
		if err := w.AddTask(benchTask(leaf, 1+r.Int63n(4096), inputOf("root", rootSize), apiURL)); err != nil {
			return nil, err
		}
		if err := w.Link("root", leaf); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// serviceWorkflow is one small three-level workflow: a root, k middle
// tasks, and one leaf under each. prefix keeps its task and file names
// apart from every other workflow on the shared drive.
func serviceWorkflow(r *rand.Rand, prefix string, k int, apiURL string) (*wfformat.Workflow, error) {
	w := wfformat.New(prefix)
	root := prefix + "_root"
	rootSize := 1 + r.Int63n(4096)
	if err := w.AddTask(benchTask(root, rootSize, nil, apiURL)); err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		mid := fmt.Sprintf("%s_mid%03d", prefix, i)
		leaf := fmt.Sprintf("%s_zleaf%03d", prefix, i)
		midSize := 1 + r.Int63n(4096)
		if err := w.AddTask(benchTask(mid, midSize, inputOf(root, rootSize), apiURL)); err != nil {
			return nil, err
		}
		if err := w.AddTask(benchTask(leaf, 1+r.Int63n(4096), inputOf(mid, midSize), apiURL)); err != nil {
			return nil, err
		}
		if err := w.Link(root, mid); err != nil {
			return nil, err
		}
		if err := w.Link(mid, leaf); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// servicePool generates the pool service_small_runs draws from; the
// seed jitters each workflow's width by about a tenth.
func servicePool(seed int64, sz sizes, apiURL string) ([]*wfformat.Workflow, error) {
	r := rand.New(rand.NewSource(seed))
	jitter := sz.ServiceFanout/8 + 1
	pool := make([]*wfformat.Workflow, sz.ServicePool)
	for i := range pool {
		k := sz.ServiceFanout - jitter + r.Intn(2*jitter+1)
		w, err := serviceWorkflow(r, fmt.Sprintf("svc%03d", i), max(k, 1), apiURL)
		if err != nil {
			return nil, err
		}
		pool[i] = w
	}
	return pool, nil
}

// fileNames lists every file a workflow reads or writes.
func fileNames(w *wfformat.Workflow) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range w.Tasks {
		for _, f := range t.Files {
			if !seen[f.Name] {
				seen[f.Name] = true
				out = append(out, f.Name)
			}
		}
	}
	return out
}
