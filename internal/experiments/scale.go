package experiments

// The scale campaign: how far past the paper's 250-task workflows the
// prototype's hot path goes. A synthetic workflow of up to 100k tasks
// is built in memory, compiled, and executed end to end through the
// workflow manager against the loopback stub, which publishes outputs
// to the shared drive, so the measured cost is DAG compilation,
// scheduling, invocation encoding, dispatch and result accounting, not
// simulated compute. Peak RSS is read from /proc/self/status (VmHWM)
// to verify memory stays bounded.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"wfserverless/internal/wfformat"
	"wfserverless/internal/wfm"
)

func newScale(cfg Config) (*campaign, error) {
	cfg = cfg.or(Config{Shape: "random", Width: 64, Parallel: 256, TimeScale: 0.001})
	if cfg.Tasks <= 0 {
		return nil, fmt.Errorf("experiments: scale needs Tasks > 0")
	}
	c := &campaign{
		title: fmt.Sprintf("Scale: %d-task %s workflow, %s scheduling", cfg.Tasks, cfg.Shape, cfg.Scheduling),
		// The stub answers in microseconds, so nominal seconds are
		// compressed hard: the phase-mode inter-phase delay becomes 1ms
		// (a 100k chain has thousands of levels), and the input wait
		// still allows 5s of wall time.
		opts:  cfg.manager(wfm.Options{InputWait: 5000}),
		cells: []Cell{{Mode: cfg.Scheduling}},
		columns: []column{
			{"shape", -10, func(r *Row) any { return r.Recipe }},
			{"tasks", 10, func(r *Row) any { return r.Tasks }},
			{"edges", 10, func(r *Row) any { return r.Edges }},
			{"build_ms", 12, func(r *Row) any { return fmt.Sprintf("%.1f", float64(r.BuildWall.Microseconds())/1e3) }},
			{"run_ms", 12, func(r *Row) any { return fmt.Sprintf("%.1f", float64(r.Wall.Microseconds())/1e3) }},
			{"tasks/s", 10, func(r *Row) any { return fmt.Sprintf("%.0f", r.TasksPerSec) }},
			{"peak_rss", 10, func(r *Row) any { return formatBytes(r.PeakRSS) }},
		},
		gates: []gate{{"every task completed", func(r *Row) bool { return r.Completed == r.Tasks }}},
	}
	c.measure = func(ctx context.Context, cl Cell) (Row, error) {
		start := time.Now()
		w, edges, err := synthetic("", cfg.Shape, cfg.Tasks, cfg.Width, cfg.Seed)
		if err != nil {
			return Row{}, err
		}
		e, err := newEnv(envSpec{w: w})
		if err != nil {
			return Row{}, err
		}
		defer e.close()
		o := c.opts
		o.Scheduling, o.Tracer = cl.Mode, cfg.tracer()
		m, err := e.manager(o)
		if err != nil {
			return Row{}, err
		}
		r := Row{Recipe: cfg.Shape, Tasks: cfg.Tasks, Edges: edges, BuildWall: time.Since(start)}
		start = time.Now()
		res, err := m.Run(ctx, e.w)
		if err != nil {
			return r, err
		}
		r.Wall = time.Since(start)
		r.TasksPerSec = float64(cfg.Tasks) / r.Wall.Seconds()
		r.PeakRSS = PeakRSS()
		for _, tr := range res.Tasks {
			if tr.Err == nil && tr.Name != wfm.HeaderName && tr.Name != wfm.TailName {
				r.Completed++
			}
		}
		if o.Tracer != nil {
			r.Trace = wfm.TraceOf(res)
		}
		return r, nil
	}
	return c, nil
}

// synthetic builds an n-task DAG of the given shape: "random" (layered,
// width tasks a layer, two random parents each), "chain" or "fanout".
// Task i is "<prefix>task_%08d" and publishes one output,
// "<prefix>out_%08d", that its children consume, so DAG edges and
// shared-drive waits line up exactly. It returns the workflow and its
// edge count.
func synthetic(prefix, shape string, n, width int, seed int64) (*wfformat.Workflow, int, error) {
	w := wfformat.New(fmt.Sprintf("%sscale-%s-%d", prefix, shape, n))
	name := func(i int) string { return fmt.Sprintf("%stask_%08d", prefix, i) }
	out := func(i int) string { return fmt.Sprintf("%sout_%08d", prefix, i) }
	parentsOf := make([][]int, n)
	switch shape {
	case "chain":
		for i := 1; i < n; i++ {
			parentsOf[i] = []int{i - 1}
		}
	case "fanout":
		for i := 1; i < n; i++ {
			parentsOf[i] = []int{0}
		}
	case "random":
		r := rand.New(rand.NewSource(seed + 1))
		for i := width; i < n; i++ {
			prevStart, prevEnd := (i/width-1)*width, min(i/width*width, i)
			a := prevStart + r.Intn(prevEnd-prevStart)
			b := prevStart + r.Intn(prevEnd-prevStart)
			if a == b {
				parentsOf[i] = []int{a}
			} else {
				parentsOf[i] = []int{a, b}
			}
		}
	default:
		return nil, 0, fmt.Errorf("experiments: unknown scale shape %q", shape)
	}

	for i, parents := range parentsOf {
		inputs := make([]string, len(parents))
		files := []wfformat.File{{Link: wfformat.LinkOutput, Name: out(i), SizeInBytes: 1}}
		for j, p := range parents {
			inputs[j] = out(p)
			files = append(files, wfformat.File{Link: wfformat.LinkInput, Name: out(p), SizeInBytes: 1})
		}
		if err := w.AddTask(&wfformat.Task{
			Name: name(i),
			Type: wfformat.TypeCompute,
			Command: wfformat.Command{
				Program:   "wfbench",
				Arguments: []wfformat.Argument{{Name: name(i), Out: map[string]int64{out(i): 1}, Inputs: inputs}},
			},
			Files:            files,
			RuntimeInSeconds: 0.001,
			Cores:            1,
			Category:         "scale",
		}); err != nil {
			return nil, 0, err
		}
	}
	edges := 0
	for i, parents := range parentsOf {
		for _, p := range parents {
			if err := w.Link(name(p), name(i)); err != nil {
				return nil, 0, err
			}
			edges++
		}
	}
	return w, edges, nil
}

// PeakRSS returns the process's peak resident set size in bytes from
// /proc/self/status (VmHWM), or 0 on platforms without procfs.
func PeakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

func formatBytes(n int64) string {
	switch {
	case n <= 0:
		return "n/a"
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/float64(1<<30))
	default:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(1<<20))
	}
}
