package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wfserverless/internal/recipes"
	"wfserverless/internal/wfgen"
)

// Sizes selects the workflow sizes per size class. The paper uses two
// sizes for fine-grained experiments and three (up to 1000 functions)
// for coarse-grained ones; cmd/experiments scales them down by default
// so the whole evaluation runs in seconds, and its flags raise them to
// paper scale.
type Sizes struct {
	Small int
	Large int
	Huge  int
}

func (s Sizes) of(class string) int {
	switch class {
	case "small":
		return s.Small
	case "large":
		return s.Large
	default:
		return s.Huge
	}
}

// generate builds one instance, clamping to the recipe's minimum.
func generate(recipe string, size int, seed int64) (*wfgen.Instance, error) {
	r, err := recipes.ForName(recipe)
	if err != nil {
		return nil, err
	}
	if size < r.MinTasks() {
		size = r.MinTasks()
	}
	spec := wfgen.Spec{Recipe: recipe, NumTasks: size, Seed: seed}
	w, err := wfgen.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &wfgen.Instance{Spec: spec, Workflow: w}, nil
}

// runOne generates and executes a single experiment cell.
func runOne(ctx context.Context, id Paradigm, recipe string, size int, seed int64, tn Tunables) (*Measurement, error) {
	spec, err := ByID(id)
	if err != nil {
		return nil, err
	}
	inst, err := generate(recipe, size, seed)
	if err != nil {
		return nil, err
	}
	m, err := RunWorkflow(ctx, spec, inst.Workflow, tn)
	if m != nil {
		m.Recipe = recipe
		if r, rerr := recipes.ForName(recipe); rerr == nil {
			m.Group = r.Group()
		}
	}
	return m, err
}

// Characterization is one Figure 3 row: a workflow's structure.
type Characterization struct {
	Recipe      string
	Display     string
	Group       int
	Tasks       int
	Phases      int
	MaxWidth    int
	MeanWidth   float64
	PhaseWidths []int
	Categories  map[string]int
}

// Figure3 characterizes every workflow at the given size: DAG structure,
// functions per phase, and functions per type.
func Figure3(size int, seed int64) ([]Characterization, error) {
	var out []Characterization
	for _, r := range recipes.All() {
		inst, err := generate(r.Name(), size, seed)
		if err != nil {
			return nil, err
		}
		stats, err := inst.Workflow.ComputeStats()
		if err != nil {
			return nil, err
		}
		out = append(out, Characterization{
			Recipe:      r.Name(),
			Display:     r.DisplayName(),
			Group:       r.Group(),
			Tasks:       stats.Tasks,
			Phases:      stats.Phases,
			MaxWidth:    stats.MaxPhaseWidth,
			MeanWidth:   stats.MeanPhaseWidth,
			PhaseWidths: stats.PhaseWidths,
			Categories:  stats.Categories,
		})
	}
	return out, nil
}

// Suite is a set of measurements with a figure label.
type Suite struct {
	Figure       string
	Measurements []*Measurement
	// Errors records cells that did not complete (the paper notes some
	// large fine-grained runs hit resource limits), keyed by cell.
	Errors map[string]error
}

// runMatrix executes paradigms x recipes x sizes sequentially.
func runMatrix(ctx context.Context, figure string, ids []Paradigm, recipeNames []string, sizes []int, seed int64, tn Tunables) (*Suite, error) {
	s := &Suite{Figure: figure, Errors: make(map[string]error)}
	for _, recipe := range recipeNames {
		for _, size := range sizes {
			for _, id := range ids {
				if err := ctx.Err(); err != nil {
					return s, err
				}
				m, err := runOne(ctx, id, recipe, size, seed, tn)
				cell := fmt.Sprintf("%s/%s/%d", id, recipe, size)
				if err != nil {
					s.Errors[cell] = err
					if m != nil {
						s.Measurements = append(s.Measurements, m)
					}
					continue
				}
				s.Measurements = append(s.Measurements, m)
			}
		}
	}
	return s, nil
}

// Figure4 compares the serverless setups (Kn1wPM, Kn1wNoPM, Kn10wNoPM)
// on Blast and Epigenomics — the paper's two exemplar behaviours — at
// two sizes.
func Figure4(ctx context.Context, sz Sizes, seed int64, tn Tunables) (*Suite, error) {
	return runMatrix(ctx, "Figure 4",
		[]Paradigm{Kn1wPM, Kn1wNoPM, Kn10wNoPM},
		[]string{"blast", "epigenomics"},
		[]int{sz.Small, sz.Large}, seed, tn)
}

// Figure5 compares the local-container setups (LC1wPM, LC1wNoPM,
// LC10wNoPM, LC10wNoPMNoCR) on Blast and Epigenomics.
func Figure5(ctx context.Context, sz Sizes, seed int64, tn Tunables) (*Suite, error) {
	return runMatrix(ctx, "Figure 5",
		[]Paradigm{LC1wPM, LC1wNoPM, LC10wNoPM, LC10wNoPMNoCR},
		[]string{"blast", "epigenomics"},
		[]int{sz.Small, sz.Large}, seed, tn)
}

// Figure6 compares coarse-grained serverless and local containers on all
// seven workflows at three sizes.
func Figure6(ctx context.Context, sz Sizes, seed int64, tn Tunables) (*Suite, error) {
	return runMatrix(ctx, "Figure 6",
		[]Paradigm{Kn1000wPM, LC1000wPM},
		recipes.Names(),
		[]int{sz.Small, sz.Large, sz.Huge}, seed, tn)
}

// Figure7 is the headline comparison: the best serverless setup
// (Kn10wNoPM) against the directly comparable baseline (LC10wNoPM) on
// all seven workflows.
func Figure7(ctx context.Context, sz Sizes, seed int64, tn Tunables) (*Suite, error) {
	return runMatrix(ctx, "Figure 7",
		[]Paradigm{Kn10wNoPM, LC10wNoPM},
		recipes.Names(),
		[]int{sz.Small, sz.Large}, seed, tn)
}

// Reduction reports serverless savings relative to local containers for
// one workflow/size cell of Figure 7.
type Reduction struct {
	Recipe     string
	Size       int
	Group      int
	TimeRatio  float64 // Kn makespan / LC makespan (>1: serverless slower)
	PowerRatio float64 // Kn mean power / LC mean power
	CPUPct     float64 // 100 * (1 - Kn/LC), positive = serverless saves
	MemPct     float64
}

// Reductions pairs Kn10wNoPM and LC10wNoPM measurements from a Figure 7
// suite and derives the paper's headline percentages.
func Reductions(s *Suite) []Reduction {
	type key struct {
		recipe string
		tasks  int
	}
	kn := make(map[key]*Measurement)
	lc := make(map[key]*Measurement)
	for _, m := range s.Measurements {
		k := key{m.Recipe, m.Tasks}
		switch m.Paradigm {
		case Kn10wNoPM:
			kn[k] = m
		case LC10wNoPM:
			lc[k] = m
		}
	}
	var out []Reduction
	for k, km := range kn {
		lm, ok := lc[k]
		if !ok || lm.MakespanS == 0 || km.MakespanS == 0 {
			continue
		}
		out = append(out, Reduction{
			Recipe:     k.recipe,
			Size:       k.tasks,
			Group:      km.Group,
			TimeRatio:  km.MakespanS / lm.MakespanS,
			PowerRatio: km.MeanPowerW / lm.MeanPowerW,
			CPUPct:     100 * (1 - km.MeanCPUCores/lm.MeanCPUCores),
			MemPct:     100 * (1 - km.MeanMemGB/lm.MeanMemGB),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Recipe != out[j].Recipe {
			return out[i].Recipe < out[j].Recipe
		}
		return out[i].Size < out[j].Size
	})
	return out
}

// MaxReductions returns the "up to" headline numbers (max CPU and memory
// savings across cells), mirroring the paper's 78.11% / 73.92%.
func MaxReductions(reds []Reduction) (cpuPct, memPct float64) {
	for _, r := range reds {
		if r.CPUPct > cpuPct {
			cpuPct = r.CPUPct
		}
		if r.MemPct > memPct {
			memPct = r.MemPct
		}
	}
	return cpuPct, memPct
}

// WriteTable renders a suite as an aligned text table, one row per
// measurement — the rows behind the paper's figure panels.
func WriteTable(w io.Writer, s *Suite) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", s.Figure); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-28s %6s %10s %9s %9s %9s %8s %6s %6s\n",
		"paradigm", "workflow", "tasks", "makespan_s", "power_W", "cpu_cores", "mem_GB", "energy_J", "cold", "fail")
	for _, m := range s.Measurements {
		fmt.Fprintf(w, "%-14s %-28s %6d %10.2f %9.1f %9.2f %9.2f %8.0f %6d %6d\n",
			m.Paradigm, m.Workflow, m.Tasks, m.MakespanS, m.MeanPowerW,
			m.MeanCPUCores, m.MeanMemGB, m.EnergyJ, m.ColdStarts, m.Failures)
	}
	if len(s.Errors) > 0 {
		cells := make([]string, 0, len(s.Errors))
		for c := range s.Errors {
			cells = append(cells, c)
		}
		sort.Strings(cells)
		fmt.Fprintf(w, "incomplete cells (resource limits, as in the paper):\n")
		for _, c := range cells {
			fmt.Fprintf(w, "  %s: %v\n", c, s.Errors[c])
		}
	}
	return nil
}

// csvHeader heads every suite of the campaign CSV.
var csvHeader = []string{
	"figure", "paradigm", "workflow", "recipe", "tasks", "group",
	"makespan_s", "mean_power_w", "energy_j", "mean_cpu_cores",
	"max_cpu_cores", "mean_busy_cores", "mean_mem_gb", "max_mem_gb",
	"cold_starts", "requests", "failures", "scale_stalls",
}

// WriteCSV renders a suite as CSV: the header, then one row per
// measurement. cmd/experiments appends every suite to one file.
func WriteCSV(w io.Writer, s *Suite) error {
	if _, err := fmt.Fprintln(w, strings.Join(csvHeader, ",")); err != nil {
		return err
	}
	for _, m := range s.Measurements {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d,%d,%.3f,%.2f,%.1f,%.3f,%.3f,%.3f,%.4f,%.4f,%d,%d,%d,%d\n",
			strings.ReplaceAll(s.Figure, " ", ""), m.Paradigm, m.Workflow, m.Recipe, m.Tasks, m.Group,
			m.MakespanS, m.MeanPowerW, m.EnergyJ, m.MeanCPUCores, m.MaxCPUCores, m.MeanBusyCores,
			m.MeanMemGB, m.MaxMemGB, m.ColdStarts, m.Requests, m.Failures, m.ScaleStalls); err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV reads back what WriteCSV wrote: one suite per header line,
// each holding the rows that follow it. A suite's Figure is its rows'
// first column, which WriteCSV writes without spaces; only the columns
// WriteCSV writes are set. Fields are parsed in column order, so the
// error for a row names its first bad field.
func ReadCSV(r io.Reader) ([]*Suite, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var out []*Suite
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		line, _ := cr.FieldPos(0)
		if slices.Equal(row, csvHeader) {
			out = append(out, &Suite{})
			continue
		}
		if len(out) == 0 || len(row) != len(csvHeader) {
			return nil, fmt.Errorf("experiments: csv line %d: %d fields under %d header(s), want %d under one", line, len(row), len(out), len(csvHeader))
		}
		s := out[len(out)-1]
		if len(s.Measurements) == 0 {
			s.Figure = row[0]
		} else if row[0] != s.Figure {
			return nil, fmt.Errorf("experiments: csv line %d: figure %q in a %s suite", line, row[0], s.Figure)
		}
		m := &Measurement{Paradigm: Paradigm(row[1]), Workflow: row[2], Recipe: row[3]}
		for i, dst := range []any{&m.Tasks, &m.Group, &m.MakespanS, &m.MeanPowerW, &m.EnergyJ,
			&m.MeanCPUCores, &m.MaxCPUCores, &m.MeanBusyCores, &m.MeanMemGB, &m.MaxMemGB,
			&m.ColdStarts, &m.Requests, &m.Failures, &m.ScaleStalls} {
			col := row[4+i]
			switch dst := dst.(type) {
			case *int:
				*dst, err = strconv.Atoi(col)
			case *float64:
				*dst, err = strconv.ParseFloat(col, 64)
			case *int64:
				*dst, err = strconv.ParseInt(col, 10, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: csv line %d field %s: %w", line, csvHeader[4+i], err)
			}
		}
		s.Measurements = append(s.Measurements, m)
	}
}

// WriteCharacterization renders Figure 3 as text.
func WriteCharacterization(w io.Writer, chars []Characterization) error {
	if _, err := fmt.Fprintln(w, "== Figure 3: workflow characterization =="); err != nil {
		return err
	}
	for _, c := range chars {
		fmt.Fprintf(w, "%-12s group=%d tasks=%-4d phases=%-3d maxWidth=%-4d meanWidth=%.1f\n",
			c.Display, c.Group, c.Tasks, c.Phases, c.MaxWidth, c.MeanWidth)
		fmt.Fprintf(w, "  phase widths: %v\n", c.PhaseWidths)
		cats := make([]string, 0, len(c.Categories))
		for name := range c.Categories {
			cats = append(cats, name)
		}
		sort.Strings(cats)
		fmt.Fprintf(w, "  functions by type:")
		for _, name := range cats {
			fmt.Fprintf(w, " %s=%d", name, c.Categories[name])
		}
		fmt.Fprintln(w)
	}
	return nil
}
