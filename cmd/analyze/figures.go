package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"wfserverless/internal/experiments"
	"wfserverless/internal/wfm"
)

// Metrics are the metric names RenderFigure draws.
var Metrics = []string{"makespan_s", "mean_power_w", "mean_cpu_cores", "mean_mem_gb", "energy_j"}

// metricOf extracts a named metric from a measurement.
func metricOf(m *experiments.Measurement, metric string) (float64, error) {
	switch metric {
	case "makespan_s":
		return m.MakespanS, nil
	case "mean_power_w":
		return m.MeanPowerW, nil
	case "mean_cpu_cores":
		return m.MeanCPUCores, nil
	case "mean_mem_gb":
		return m.MeanMemGB, nil
	case "energy_j":
		return m.EnergyJ, nil
	default:
		return 0, fmt.Errorf("unknown metric %q (have %v)", metric, Metrics)
	}
}

// byFigure groups the suites' measurements by figure label, in file
// order, and returns the labels that hold any, sorted.
func byFigure(suites []*experiments.Suite) (map[string][]*experiments.Measurement, []string) {
	figs := map[string][]*experiments.Measurement{}
	var names []string
	for _, s := range suites {
		if len(s.Measurements) == 0 {
			continue
		}
		if _, ok := figs[s.Figure]; !ok {
			names = append(names, s.Figure)
		}
		figs[s.Figure] = append(figs[s.Figure], s.Measurements...)
	}
	sort.Strings(names)
	return figs, names
}

// RenderFigure draws one figure panel as grouped ASCII bars: rows are
// (recipe, size) cells; within a cell one bar per paradigm, scaled to
// the panel-wide maximum.
func RenderFigure(w io.Writer, ms []*experiments.Measurement, figure, metric string) error {
	if len(ms) == 0 {
		return fmt.Errorf("no records for figure %q", figure)
	}
	maxVal := 0.0
	for _, m := range ms {
		v, err := metricOf(m, metric)
		if err != nil {
			return err
		}
		if v > maxVal {
			maxVal = v
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	type cellKey struct {
		recipe string
		tasks  int
	}
	cells := map[cellKey][]*experiments.Measurement{}
	var order []cellKey
	for _, m := range ms {
		k := cellKey{m.Recipe, m.Tasks}
		if _, ok := cells[k]; !ok {
			order = append(order, k)
		}
		cells[k] = append(cells[k], m)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].recipe != order[j].recipe {
			return order[i].recipe < order[j].recipe
		}
		return order[i].tasks < order[j].tasks
	})
	const width = 44
	fmt.Fprintf(w, "%s — %s (bar = %s, full scale %.2f)\n", figure, metric, metric, maxVal)
	for _, k := range order {
		fmt.Fprintf(w, "%s (%d tasks)\n", k.recipe, k.tasks)
		group := cells[k]
		sort.Slice(group, func(i, j int) bool { return group[i].Paradigm < group[j].Paradigm })
		for _, m := range group {
			v, _ := metricOf(m, metric)
			n := int(v / maxVal * width)
			if n == 0 && v > 0 {
				n = 1
			}
			fmt.Fprintf(w, "  %-14s |%-*s| %10.2f\n", m.Paradigm, width, strings.Repeat("#", n), v)
		}
	}
	return nil
}

// Aggregate groups measurements by paradigm and averages a metric — the
// per-paradigm roll-up used in the conclusions.
func Aggregate(ms []*experiments.Measurement, metric string) (map[string]float64, error) {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, m := range ms {
		v, err := metricOf(m, metric)
		if err != nil {
			return nil, err
		}
		sums[string(m.Paradigm)] += v
		counts[string(m.Paradigm)]++
	}
	out := make(map[string]float64, len(sums))
	for p, s := range sums {
		out[p] = s / float64(counts[p])
	}
	return out, nil
}

// RenderGantt draws an execution trace as an ASCII Gantt chart: one row
// per function (grouped by phase, capped at maxRows with a summary of
// the rest), time flowing left to right across the run's wall span.
// This is the per-execution view the paper's artifact derives from its
// workflow_executions results.
func RenderGantt(w io.Writer, tr *wfm.Trace, maxRows int) error {
	if len(tr.Events) == 0 {
		return fmt.Errorf("empty trace")
	}
	if maxRows <= 0 {
		maxRows = 40
	}
	span := 0.0
	for _, ev := range tr.Events {
		if ev.EndMS > span {
			span = ev.EndMS
		}
	}
	if span == 0 {
		span = 1
	}
	const width = 60
	fmt.Fprintf(w, "%s — %d events over %.1f ms wall (makespan %.2f s nominal)\n",
		tr.Workflow, len(tr.Events), span, tr.Makespan)
	fmt.Fprintf(w, "%-34s %-*s\n", "function (phase)", width, "0"+strings.Repeat(" ", width-8)+"wall end")

	events := append([]wfm.TraceEvent(nil), tr.Events...)
	sort.Slice(events, func(i, j int) bool {
		if events[i].Phase != events[j].Phase {
			return events[i].Phase < events[j].Phase
		}
		if events[i].StartMS != events[j].StartMS {
			return events[i].StartMS < events[j].StartMS
		}
		return events[i].Name < events[j].Name
	})
	skippedPerPhase := map[int]int{}
	rowsPerPhase := map[int]int{}
	phaseCount := map[int]struct{}{}
	for _, ev := range events {
		phaseCount[ev.Phase] = struct{}{}
	}
	perPhaseCap := max(1, maxRows/len(phaseCount))
	for _, ev := range events {
		if rowsPerPhase[ev.Phase] >= perPhaseCap {
			skippedPerPhase[ev.Phase]++
			continue
		}
		rowsPerPhase[ev.Phase]++
		startCol := int(ev.StartMS / span * float64(width))
		endCol := int(ev.EndMS / span * float64(width))
		if endCol <= startCol {
			endCol = startCol + 1
		}
		if endCol > width {
			endCol = width
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat("=", endCol-startCol)
		marker := ""
		if ev.Error != "" {
			marker = " !ERR"
		}
		name := ev.Name
		if len(name) > 30 {
			name = name[:29] + "~"
		}
		fmt.Fprintf(w, "%-34s|%-*s|%s\n", name+fmt.Sprintf(" (%d)", ev.Phase), width, bar, marker)
	}
	phases := make([]int, 0, len(skippedPerPhase))
	for p := range skippedPerPhase {
		phases = append(phases, p)
	}
	sort.Ints(phases)
	for _, p := range phases {
		fmt.Fprintf(w, "  ... phase %d: %d more function(s) not shown\n", p, skippedPerPhase[p])
	}
	return nil
}
