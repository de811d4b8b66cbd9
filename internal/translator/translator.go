// Package translator reimplements the Translator component of WfBench
// (WfCommons): converters that take a generated workflow in the common
// format and prepare it for execution on a concrete target. Upstream
// WfCommons ships Pegasus and Nextflow translators; the paper's
// contribution is a new Knative translator whose output carries, for each
// function, key-value arguments and the HTTP endpoint (api_url) of the
// WfBench service that executes it. This package provides all four:
// Knative, LocalContainer (the paper's bare-metal baseline), Pegasus, and
// Nextflow.
package translator

import (
	"fmt"
	"sort"
	"strings"

	"wfserverless/internal/wfformat"
)

// ServiceNamer maps a task to the name of the platform service that
// executes it. The paper deploys a single "wfbench" service; per-category
// services are useful for ablations.
type ServiceNamer func(t *wfformat.Task) string

// SingleService names every task's service the same, the paper's setup.
func SingleService(name string) ServiceNamer {
	return func(*wfformat.Task) string { return name }
}

// KnativeOptions configures the Knative translator.
type KnativeOptions struct {
	// IngressURL is the base URL of the serverless ingress, e.g.
	// "http://127.0.0.1:53412" for the in-process platform or the
	// sslip.io address of a real Knative install.
	IngressURL string
	// Service names the Knative service per task; nil means the single
	// shared "wfbench" service.
	Service ServiceNamer
	// Workdir is recorded in each function's arguments, the shared
	// drive location for I/O.
	Workdir string
}

// Knative translates a workflow for execution on a serverless platform
// that routes HTTP requests by service name: every task receives
// api_url = <ingress>/<service>/wfbench and its workdir. The input
// workflow is not mutated.
func Knative(w *wfformat.Workflow, opts KnativeOptions) (*wfformat.Workflow, error) {
	if opts.IngressURL == "" {
		return nil, fmt.Errorf("translator: knative: IngressURL required")
	}
	namer := opts.Service
	if namer == nil {
		namer = SingleService("wfbench")
	}
	out := w.Clone()
	for _, name := range out.TaskNames() {
		t := out.Tasks[name]
		t.Command.APIURL = fmt.Sprintf("%s/%s/wfbench",
			strings.TrimSuffix(opts.IngressURL, "/"), namer(t))
		for i := range t.Command.Arguments {
			t.Command.Arguments[i].Workdir = opts.Workdir
		}
	}
	return out, nil
}

// LocalContainerOptions configures the bare-metal baseline translator.
type LocalContainerOptions struct {
	// ContainerURL maps a task to the address of the local container
	// hosting WfBench for it; nil requires BaseURL.
	ContainerURL func(t *wfformat.Task) string
	// BaseURL is the single local container address, e.g.
	// "http://localhost:80".
	BaseURL string
	Workdir string
}

// LocalContainer translates a workflow for the paper's baseline: the same
// WfBench application served from always-on local containers instead of a
// serverless platform.
func LocalContainer(w *wfformat.Workflow, opts LocalContainerOptions) (*wfformat.Workflow, error) {
	urlFor := opts.ContainerURL
	if urlFor == nil {
		if opts.BaseURL == "" {
			return nil, fmt.Errorf("translator: local: BaseURL or ContainerURL required")
		}
		base := strings.TrimSuffix(opts.BaseURL, "/")
		urlFor = func(*wfformat.Task) string { return base + "/wfbench" }
	}
	out := w.Clone()
	for _, name := range out.TaskNames() {
		t := out.Tasks[name]
		t.Command.APIURL = urlFor(t)
		for i := range t.Command.Arguments {
			t.Command.Arguments[i].Workdir = opts.Workdir
		}
	}
	return out, nil
}

// Pegasus renders the workflow as a Pegasus-style abstract DAG (DAX-like
// YAML), mirroring the upstream WfCommons Pegasus translator closely
// enough to feed tooling that consumes job/uses/parent lists.
func Pegasus(w *wfformat.Workflow) (string, error) {
	if err := w.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "x-pegasus:\n  apiLang: go\n  createdBy: wfserverless\nname: %s\njobs:\n", w.Name)
	for _, name := range w.TaskNames() {
		t := w.Tasks[name]
		fmt.Fprintf(&b, "  - id: %s\n    name: %s\n    namespace: %s\n", t.Name, t.Category, w.Name)
		fmt.Fprintf(&b, "    arguments: [--percent-cpu=%g, --cpu-work=%g]\n",
			t.Command.Arguments[0].PercentCPU, t.Command.Arguments[0].CPUWork)
		fmt.Fprintf(&b, "    uses:\n")
		for _, f := range t.Files {
			fmt.Fprintf(&b, "      - {lfn: %s, type: %s, size: %d}\n", f.Name, f.Link, f.SizeInBytes)
		}
	}
	fmt.Fprintf(&b, "jobDependencies:\n")
	for _, name := range w.TaskNames() {
		t := w.Tasks[name]
		if len(t.Children) == 0 {
			continue
		}
		children := append([]string(nil), t.Children...)
		sort.Strings(children)
		fmt.Fprintf(&b, "  - id: %s\n    children: [%s]\n", t.Name, strings.Join(children, ", "))
	}
	return b.String(), nil
}

// Nextflow renders the workflow as a Nextflow DSL2 script skeleton: one
// process per function category and a workflow block wiring task
// invocations through channels, mirroring the upstream WfCommons
// Nextflow translator's structure.
func Nextflow(w *wfformat.Workflow) (string, error) {
	if err := w.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Generated from %s by wfserverless (WfCommons Nextflow translator port)\n", w.Name)
	fmt.Fprintf(&b, "nextflow.enable.dsl=2\n\n")
	cats := make([]string, 0, len(w.Categories()))
	for c := range w.Categories() {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Fprintf(&b, "process %s {\n  input:\n    path inputs\n  output:\n    path \"*_output.txt\"\n  script:\n    \"wfbench ${task.ext.args}\"\n}\n\n", sanitizeIdent(c))
	}
	fmt.Fprintf(&b, "workflow {\n")
	order, err := w.Phases()
	if err != nil {
		return "", err
	}
	for pi, phase := range order {
		fmt.Fprintf(&b, "  // phase %d\n", pi)
		for _, name := range phase {
			t := w.Tasks[name]
			fmt.Fprintf(&b, "  %s( Channel.fromList(%s) ) // task %s\n",
				sanitizeIdent(t.Category), nfList(t.InputFiles()), name)
		}
	}
	fmt.Fprintf(&b, "}\n")
	return b.String(), nil
}

func sanitizeIdent(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "p"
	}
	return string(out)
}

func nfList(items []string) string {
	quoted := make([]string, len(items))
	for i, s := range items {
		quoted[i] = "'" + s + "'"
	}
	return "[" + strings.Join(quoted, ", ") + "]"
}
