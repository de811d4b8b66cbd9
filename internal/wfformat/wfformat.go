// Package wfformat defines the workflow description format used throughout
// this repository. It mirrors the JSON the paper's Knative Translator
// emits (Section III-A): a workflow is a set of named compute functions,
// each carrying its command (the WfBench program with key-value
// arguments), the HTTP endpoint that executes it (api_url), its parent and
// child functions, and its input/output files with sizes in bytes.
package wfformat

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"wfserverless/internal/dag"
)

// Link direction for a file relative to its task.
const (
	LinkInput  = "input"
	LinkOutput = "output"
)

// TypeCompute is the only task type the paper's workflows use.
const TypeCompute = "compute"

// File is a data product consumed or produced by a task.
type File struct {
	Link        string `json:"link"`
	Name        string `json:"name"`
	SizeInBytes int64  `json:"sizeInBytes"`
}

// Argument carries the WfBench invocation parameters of one function,
// following the key-value structure the paper's translator introduces
// ("the first modification converts the entry 'arguments' from a list of
// parameters to a sub-entry with key-values").
type Argument struct {
	Name       string           `json:"name"`
	PercentCPU float64          `json:"percent-cpu"`
	CPUWork    float64          `json:"cpu-work"`
	MemBytes   int64            `json:"mem-bytes,omitempty"`
	Out        map[string]int64 `json:"out"`
	Inputs     []string         `json:"inputs"`
	Workdir    string           `json:"workdir,omitempty"`
}

// Command describes how to execute a task. APIURL is the second paper
// modification: the HTTP request endpoint of the function on the
// serverless platform.
type Command struct {
	Program   string     `json:"program"`
	Arguments []Argument `json:"arguments"`
	APIURL    string     `json:"api_url,omitempty"`
}

// Task is one function of a workflow.
type Task struct {
	Name             string   `json:"name"`
	Type             string   `json:"type"`
	Command          Command  `json:"command"`
	Parents          []string `json:"parents"`
	Children         []string `json:"children"`
	Files            []File   `json:"files"`
	RuntimeInSeconds float64  `json:"runtimeInSeconds"`
	Cores            int      `json:"cores"`
	ID               string   `json:"id"`
	Category         string   `json:"category"`
	StartedAt        string   `json:"startedAt,omitempty"`
}

// InputFiles returns the names of the task's input files, sorted.
func (t *Task) InputFiles() []string { return t.AppendFileNames(nil, LinkInput) }

// OutputFiles returns the names of the task's output files, sorted.
func (t *Task) OutputFiles() []string { return t.AppendFileNames(nil, LinkOutput) }

// AppendFileNames appends the names of the task's files with that link
// to dst, sorted among themselves: InputFiles into a buffer the caller
// reuses from task to task.
func (t *Task) AppendFileNames(dst []string, link string) []string {
	start := len(dst)
	for _, f := range t.Files {
		if f.Link == link {
			dst = append(dst, f.Name)
		}
	}
	if names := dst[start:]; !slices.IsSorted(names) {
		slices.Sort(names)
	}
	return dst
}

// OutputSizes returns output file name -> size.
func (t *Task) OutputSizes() map[string]int64 {
	m := make(map[string]int64)
	for _, f := range t.Files {
		if f.Link == LinkOutput {
			m[f.Name] = f.SizeInBytes
		}
	}
	return m
}

// Workflow is a named DAG of tasks. Tasks are keyed by their unique name,
// matching the paper's JSON excerpt where the top-level object maps
// function names to function descriptions.
type Workflow struct {
	Name        string           `json:"name"`
	Description string           `json:"description,omitempty"`
	CreatedAt   string           `json:"createdAt,omitempty"`
	Tasks       map[string]*Task `json:"tasks"`
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{Name: name, Tasks: make(map[string]*Task)}
}

// AddTask inserts t, indexed by its name. It returns an error on duplicate
// or empty names so generator bugs surface early.
func (w *Workflow) AddTask(t *Task) error {
	if t.Name == "" {
		return fmt.Errorf("wfformat: task with empty name")
	}
	if _, ok := w.Tasks[t.Name]; ok {
		return fmt.Errorf("wfformat: duplicate task %q", t.Name)
	}
	if w.Tasks == nil {
		w.Tasks = make(map[string]*Task)
	}
	w.Tasks[t.Name] = t
	return nil
}

// Link records a parent -> child dependency on both tasks. Lists built
// through Link stay sorted (the invariant insertSorted relies on), so
// linking n children costs O(n log n) instead of the full re-sort per
// edge that made 100k-wide fan-outs quadratic to construct.
func (w *Workflow) Link(parent, child string) error {
	p, ok := w.Tasks[parent]
	if !ok {
		return fmt.Errorf("wfformat: link: unknown parent %q", parent)
	}
	c, ok := w.Tasks[child]
	if !ok {
		return fmt.Errorf("wfformat: link: unknown child %q", child)
	}
	p.Children = insertSorted(p.Children, child)
	c.Parents = insertSorted(c.Parents, parent)
	return nil
}

// insertSorted inserts v into the sorted slice s unless already
// present. Generators emit edges in name order, so the common case is
// an O(1) append past the current maximum; everything else binary-
// searches the insertion point.
func insertSorted(s []string, v string) []string {
	if n := len(s); n == 0 || s[n-1] < v {
		return append(s, v)
	}
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}

// TaskNames returns all task names, sorted.
func (w *Workflow) TaskNames() []string {
	out := make([]string, 0, len(w.Tasks))
	for n := range w.Tasks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of tasks.
func (w *Workflow) Len() int { return len(w.Tasks) }

// Compile interns the workflow's task names (IDs assigned in sorted
// name order) and builds the CSR dependency graph plus the ID-aligned
// task slice — the representation the workflow manager's hot path runs
// on. String-keyed lookups survive only at this boundary; past it,
// every structure is indexed by dense int32 task ID. Compile checks
// structure only (children resolve, no self edge, no cycle);
// ValidateCompile is the entry point for a workflow about to run.
func (w *Workflow) Compile() (*dag.CSR, []*Task, error) {
	return w.compile(w.TaskNames())
}

// compile is Compile over the already-sorted task names.
func (w *Workflow) compile(names []string) (*dag.CSR, []*Task, error) {
	b := dag.NewCSRBuilder(len(names), len(names))
	for _, n := range names {
		b.AddVertex(n)
	}
	ix := b.Index()
	tasks := make([]*Task, len(names))
	for id, n := range names {
		t := w.Tasks[n]
		if t == nil {
			return nil, nil, fmt.Errorf("wfformat: task %q is null", n)
		}
		tasks[id] = t
		for _, c := range t.Children {
			cid, ok := ix.ID(c)
			if !ok {
				return nil, nil, fmt.Errorf("wfformat: task %q lists unknown child %q", n, c)
			}
			if err := b.AddEdgeIDs(int32(id), cid); err != nil {
				return nil, nil, err
			}
		}
	}
	csr, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return csr, tasks, nil
}

// Phases returns the topological levels of the workflow: the "steps" of
// the paper, where all functions in a phase are invoked simultaneously.
// Each level is sorted lexicographically.
func (w *Workflow) Phases() ([][]string, error) {
	// IDs are assigned in sorted name order, so the ID-ordered level
	// slices are already lexicographic.
	csr, _, err := w.Compile()
	if err != nil {
		return nil, err
	}
	levels := csr.LevelSlices()
	out := make([][]string, len(levels))
	for i, ids := range levels {
		lv := make([]string, len(ids))
		for j, id := range ids {
			lv[j] = csr.Name(id)
		}
		out[i] = lv
	}
	return out, nil
}

// Categories returns category -> number of tasks, the function-type
// composition shown in the third column of the paper's Figure 3.
func (w *Workflow) Categories() map[string]int {
	m := make(map[string]int)
	for _, t := range w.Tasks {
		m[t.Category]++
	}
	return m
}

// TotalDataBytes sums the sizes of all distinct files in the workflow.
// When a file appears as both an output (at its producer) and an input (at
// consumers), the producer's declared size is authoritative.
func (w *Workflow) TotalDataBytes() int64 {
	seen := make(map[string]int64)
	isOutput := make(map[string]bool)
	for _, t := range w.Tasks {
		for _, f := range t.Files {
			if f.Link == LinkOutput {
				seen[f.Name] = f.SizeInBytes
				isOutput[f.Name] = true
			} else if !isOutput[f.Name] {
				seen[f.Name] = f.SizeInBytes
			}
		}
	}
	var total int64
	for _, sz := range seen {
		total += sz
	}
	return total
}

// ValidationError aggregates all problems found by Validate.
type ValidationError struct {
	Problems []string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("wfformat: invalid workflow: %s", strings.Join(e.Problems, "; "))
}

// Validate checks structural integrity: tasks have names and compute
// type, parent/child references are symmetric and resolve, the DAG is
// acyclic, and every input file is either produced by an ancestor task or
// is an external workflow input (no parent produces it and the task is
// allowed to read it from the shared drive as initial data).
func (w *Workflow) Validate() error {
	_, _, _, err := w.ValidateCompile()
	return err
}

// ValidateCompile is Validate and Compile in one pass over one graph: it
// returns the compiled CSR and ID-aligned tasks of a workflow that
// passed every check, or a *ValidationError listing every problem. The
// graph checks (cycle, producer is an ancestor) run on the CSR the
// caller goes on to execute. external is the staging manifest, which the
// producer table gives for one more pass over the files: every input no
// task produces.
func (w *Workflow) ValidateCompile() (csr *dag.CSR, tasks []*Task, external []File, err error) {
	var probs []string
	add := func(format string, args ...interface{}) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}
	names := w.TaskNames()
	producers := make(map[string]int32, len(names)) // file -> ID of producing task (its index in names)
	// Symmetric edge checks binary-search the other side's list: linear
	// scans per edge made validating a wide fan-out quadratic. Link keeps
	// lists sorted; one that arrives unsorted (hand-built or
	// deserialized) gets a sorted copy here, keyed by the list it stands
	// in for, rather than being assumed to follow Link's invariant.
	var sortedCopies map[*[]string][]string
	for _, t := range w.Tasks {
		if t == nil {
			continue
		}
		for _, list := range []*[]string{&t.Parents, &t.Children} {
			if !slices.IsSorted(*list) {
				if sortedCopies == nil {
					sortedCopies = make(map[*[]string][]string)
				}
				c := slices.Clone(*list)
				slices.Sort(c)
				sortedCopies[list] = c
			}
		}
	}
	edgeListed := func(list *[]string, v string) bool {
		view := *list
		if c, ok := sortedCopies[list]; ok {
			view = c
		}
		_, found := slices.BinarySearch(view, v)
		return found
	}
	for id, n := range names {
		t := w.Tasks[n]
		if t == nil {
			add("task %q is null", n)
			continue
		}
		if t.Name != n {
			add("task keyed %q has name %q", n, t.Name)
		}
		if t.Type != TypeCompute {
			add("task %q has unsupported type %q", n, t.Type)
		}
		if t.Cores <= 0 {
			add("task %q has cores %d", n, t.Cores)
		}
		if len(t.Command.Arguments) != 1 {
			add("task %q has %d argument blocks, want 1", n, len(t.Command.Arguments))
		} else {
			a := t.Command.Arguments[0]
			if a.Name != t.Name {
				add("task %q argument name %q mismatch", n, a.Name)
			}
			if a.PercentCPU < 0 || a.PercentCPU > 1 {
				add("task %q percent-cpu %v outside [0,1]", n, a.PercentCPU)
			}
			if a.CPUWork < 0 {
				add("task %q negative cpu-work", n)
			}
		}
		for _, p := range t.Parents {
			pt := w.Tasks[p]
			if pt == nil {
				add("task %q lists unknown parent %q", n, p)
				continue
			}
			if !edgeListed(&pt.Children, n) {
				add("task %q lists parent %q which does not list it as child", n, p)
			}
		}
		for _, c := range t.Children {
			ct := w.Tasks[c]
			if ct == nil {
				add("task %q lists unknown child %q", n, c)
				continue
			}
			if !edgeListed(&ct.Parents, n) {
				add("task %q lists child %q which does not list it as parent", n, c)
			}
		}
		for _, f := range t.Files {
			if f.Link != LinkInput && f.Link != LinkOutput {
				add("task %q file %q has link %q", n, f.Name, f.Link)
			}
			if f.SizeInBytes < 0 {
				add("task %q file %q has negative size", n, f.Name)
			}
			if f.Link == LinkOutput {
				if prev, dup := producers[f.Name]; dup && prev != int32(id) {
					add("file %q produced by both %q and %q", f.Name, names[prev], n)
				}
				producers[f.Name] = int32(id)
			}
		}
	}
	if len(probs) > 0 {
		return nil, nil, nil, &ValidationError{Problems: probs}
	}
	csr, tasks, err = w.compile(names)
	if err != nil {
		return nil, nil, nil, &ValidationError{Problems: []string{err.Error()}}
	}
	// Every input produced by some task must come from an ancestor. In
	// well-formed workflows the producer is almost always a direct
	// parent, so check the edge first and pay a reachability walk only
	// for transitive producers — O(V+E) in practice instead of
	// materializing full ancestor sets per task (O(V·E), which collapses
	// at 100k tasks).
	reaches := csr.Reachability()
	var inputs []string
	for id, t := range tasks {
		inputs = t.AppendFileNames(inputs[:0], LinkInput)
		for _, in := range inputs {
			prod, ok := producers[in]
			if !ok || prod == int32(id) || csr.HasEdge(prod, int32(id)) {
				continue
			}
			if !reaches(prod, int32(id)) {
				add("task %q input %q produced by non-ancestor %q", t.Name, in, names[prod])
			}
		}
	}
	if len(probs) > 0 {
		return nil, nil, nil, &ValidationError{Problems: probs}
	}
	// The staging manifest: every input no task produces, sorted by name;
	// of two declarations of one file, the later task's (in ID order) wins.
	for _, t := range tasks {
		for _, f := range t.Files {
			if _, produced := producers[f.Name]; f.Link == LinkInput && !produced {
				external = append(external, f)
			}
		}
	}
	slices.SortStableFunc(external, func(a, b File) int { return strings.Compare(a.Name, b.Name) })
	last := external[:0]
	for i, f := range external {
		if i+1 == len(external) || external[i+1].Name != f.Name {
			last = append(last, f)
		}
	}
	return csr, tasks, last, nil
}

// ExternalInputs returns the input files no task produces — the initial
// data that must be staged onto the shared drive before execution.
func (w *Workflow) ExternalInputs() []File {
	produced := make(map[string]bool)
	for _, t := range w.Tasks {
		for _, f := range t.Files {
			if f.Link == LinkOutput {
				produced[f.Name] = true
			}
		}
	}
	seen := make(map[string]File)
	for _, t := range w.Tasks {
		for _, f := range t.Files {
			if f.Link == LinkInput && !produced[f.Name] {
				seen[f.Name] = f
			}
		}
	}
	out := make([]File, 0, len(seen))
	for _, f := range seen {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Marshal serializes the workflow to indented JSON for human readers.
// Large generated instances should use MarshalCompact: pretty-printing
// a 100k-task workflow is O(n) extra bytes and garbage for no reader.
func (w *Workflow) Marshal() ([]byte, error) {
	return json.MarshalIndent(w, "", "  ")
}

// MarshalCompact serializes the workflow to single-line JSON — the fast
// path for generated instances and machine-to-machine transfer.
func (w *Workflow) MarshalCompact() ([]byte, error) {
	return json.Marshal(w)
}

// Read parses a workflow from r.
func Read(r io.Reader) (*Workflow, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wfformat: read: %w", err)
	}
	return Parse(data)
}

// Load reads a workflow description from a JSON file.
func Load(path string) (*Workflow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Save writes the workflow as indented JSON to path.
func (w *Workflow) Save(path string) error {
	data, err := w.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SaveCompact writes the workflow as compact JSON to path — used for
// generated instances, where nobody reads the bytes and indentation
// only inflates file size and encode time.
func (w *Workflow) SaveCompact(path string) error {
	data, err := w.MarshalCompact()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Clone returns a deep copy of the workflow, so translators can annotate
// without mutating the generator's output.
func (w *Workflow) Clone() *Workflow {
	n := New(w.Name)
	n.Description = w.Description
	n.CreatedAt = w.CreatedAt
	for name, t := range w.Tasks {
		c := *t
		c.Parents = append([]string(nil), t.Parents...)
		c.Children = append([]string(nil), t.Children...)
		c.Files = append([]File(nil), t.Files...)
		c.Command.Arguments = make([]Argument, len(t.Command.Arguments))
		for i, a := range t.Command.Arguments {
			ca := a
			ca.Inputs = append([]string(nil), a.Inputs...)
			ca.Out = make(map[string]int64, len(a.Out))
			for k, v := range a.Out {
				ca.Out[k] = v
			}
			c.Command.Arguments[i] = ca
		}
		n.Tasks[name] = &c
	}
	return n
}

// Stats summarizes a workflow's structure, used by Figure 3.
type Stats struct {
	Tasks          int
	Edges          int
	Phases         int
	MaxPhaseWidth  int
	MeanPhaseWidth float64
	Categories     map[string]int
	PhaseWidths    []int
	TotalBytes     int64
	// CriticalPathSeconds is the longest dependency chain weighted by
	// each task's nominal runtime — the lower bound on makespan with
	// unlimited parallelism.
	CriticalPathSeconds float64
	// CriticalPath lists the tasks on that chain.
	CriticalPath []string
}

// ComputeStats derives the characterization numbers for the workflow.
func (w *Workflow) ComputeStats() (*Stats, error) {
	csr, tasks, err := w.Compile()
	if err != nil {
		return nil, err
	}
	levels := csr.LevelSlices()
	s := &Stats{
		Tasks:      w.Len(),
		Edges:      csr.EdgeCount(),
		Phases:     len(levels),
		Categories: w.Categories(),
		TotalBytes: w.TotalDataBytes(),
	}
	for _, p := range levels {
		s.PhaseWidths = append(s.PhaseWidths, len(p))
		if len(p) > s.MaxPhaseWidth {
			s.MaxPhaseWidth = len(p)
		}
	}
	if len(levels) > 0 {
		s.MeanPhaseWidth = float64(w.Len()) / float64(len(levels))
	}
	weights := make([]float64, len(tasks))
	for id, t := range tasks {
		weights[id] = t.RuntimeInSeconds
	}
	path, total := csr.CriticalPath(weights)
	for _, id := range path {
		s.CriticalPath = append(s.CriticalPath, csr.Name(id))
	}
	s.CriticalPathSeconds = total
	return s, nil
}
