package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The test binary is also its own host reference child, as bench is.
func TestMain(m *testing.M) {
	if spec := os.Getenv(hostRefEnv); spec != "" {
		os.Exit(hostRefChild(spec))
	}
	os.Exit(m.Run())
}

func toyConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: 1, seconds: 0.1, trace: trace,
		traceOut: filepath.Join(dir, "trace.jsonl"), tmp: dir, sz: toySizes,
	}
}

// Every workload, untraced and traced, emits every metric of its table
// by name and unit, and passes its own correctness gate.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			defs, mode := endToEnd, "end_to_end"
			if trace {
				defs, mode = perLayer, "per_layer"
			}
			t.Run(wl.Name+"/"+mode, func(t *testing.T) {
				cfg := toyConfig(t, wl.Name, trace)
				out, err := runWorkload(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := out.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case got.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, got.Unit, d.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", d.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, must never be 0", d.Name, got.Value)
					}
				}
				if trace {
					if out.Metrics["trace.spans"].Value == 0 {
						t.Error("traced run recorded no spans")
					}
					if info, err := os.Stat(cfg.traceOut); err != nil || info.Size() == 0 {
						t.Errorf("no spans written: %v", err)
					}
				}
				left, _ := filepath.Glob(filepath.Join(cfg.tmp, "run-*"))
				if len(left) != 0 {
					t.Errorf("temp roots left behind: %v", left)
				}
			})
		}
	}
}

// A declared output that is missing from the drive fails the gate.
func TestRemovedOutputTripsGate(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			s, err := doSetUp(toyConfig(t, wl.Name, false), newRecorder())
			defer s.close()
			if err != nil {
				t.Fatal(err)
			}
			if m := s.w.measure(s.w.unit(0.1), false); m.failed != 0 {
				t.Fatalf("%d of %d operations failed", m.failed, m.attempted)
			}
			if bad := s.w.check(); len(bad) != 0 {
				t.Fatalf("gate fails on a clean run: %v", bad)
			}
			victim := s.w.subjects()[0]
			for _, task := range victim.Tasks {
				s.e.drive.Remove(task.OutputFiles()[0])
				break
			}
			if bad := s.w.check(); len(bad) == 0 {
				t.Error("gate passed with an output file removed")
			}
		})
	}
}

// BENCHMARK.json is written by hand; the tables in metrics.go are what
// the program emits. They must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, table has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, table has %+v", i, doc.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A span's self time excludes the union of its children, overlaps once.
func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "post", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "post", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "handle", Start: 15, End: 25},
	}
	self := map[int64]int64{}
	for _, s := range r.finish() {
		self[s.ID] = s.Self
	}
	want := map[int64]int64{1: 50, 2: 20, 3: 30, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}
