package wfformat

import (
	"math/rand"
	"testing"
)

func bigWorkflow(b *testing.B) *Workflow {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	w := randomFanoutBench(r, 40, 30)
	return w
}

// randomFanoutBench builds a valid layered workflow for benchmarks.
func randomFanoutBench(r *rand.Rand, phases, width int) *Workflow {
	w := New("bench")
	var prev []*Task
	id := 0
	for p := 0; p < phases; p++ {
		var cur []*Task
		for i := 0; i < width; i++ {
			id++
			name := "t" + itoa(id)
			out := map[string]int64{name + "_out": 100}
			var inputs []string
			var parent *Task
			if len(prev) > 0 {
				parent = prev[r.Intn(len(prev))]
				inputs = parent.OutputFiles()
			}
			task := buildTask(name, "cat", inputs, out)
			w.AddTask(task)
			if parent != nil {
				w.Link(parent.Name, name)
			}
			cur = append(cur, task)
		}
		prev = cur
	}
	return w
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func BenchmarkValidate(b *testing.B) {
	w := bigWorkflow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalParse(b *testing.B) {
	w := bigWorkflow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := w.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhases(b *testing.B) {
	w := bigWorkflow(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Phases(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateCompileFanout validates and compiles bench/'s
// fan-out shape at its size: a root and 100k leaves, the edge checks
// and the CSR build of one admission or run.
func BenchmarkValidateCompileFanout(b *testing.B) {
	w := New("fanout")
	w.AddTask(buildTask("root", "x", nil, map[string]int64{"out_root": 1}))
	for i := 1; i < 100000; i++ {
		leaf := "leaf_" + itoa(1000000 + i)[1:]
		w.AddTask(buildTask(leaf, "x", []string{"out_root"}, map[string]int64{"out_" + leaf: 1}))
		w.Link("root", leaf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := w.ValidateCompile(); err != nil {
			b.Fatal(err)
		}
	}
}
