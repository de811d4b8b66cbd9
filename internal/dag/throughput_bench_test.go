package dag

import (
	"fmt"
	"math/rand"
	"testing"
)

// Scheduler throughput suite, a developer tool: drains whole DAGs
// through the Scheduler on four shapes at 1k/10k/100k tasks, reporting
// tasks/s (`go test ./internal/dag -run xxx -bench . -benchmem`). The
// reference benchmark's dag.* ladder rungs (bench/) are the tracked
// numbers.

// benchShape names a DAG generator used by the throughput suite.
type benchShape struct {
	name  string
	edges func(n int) (names []string, edges [][2]int32)
}

// chainShape: v0 -> v1 -> ... -> v(n-1); the deepest possible DAG.
func chainShape(n int) ([]string, [][2]int32) {
	names := benchNames(n)
	edges := make([][2]int32, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int32{int32(i - 1), int32(i)})
	}
	return names, edges
}

// fanoutShape: one root feeding n-1 leaves; the widest possible DAG.
func fanoutShape(n int) ([]string, [][2]int32) {
	names := benchNames(n)
	edges := make([][2]int32, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int32{0, int32(i)})
	}
	return names, edges
}

// diamondShape: repeated 1 -> w -> 1 diamonds, mixing joins (true
// barriers) with intra-diamond parallelism.
func diamondShape(n int) ([]string, [][2]int32) {
	const w = 8
	names := benchNames(n)
	var edges [][2]int32
	i := 0
	for i+w+1 < n {
		top := int32(i)
		bottom := int32(i + w + 1)
		for j := 1; j <= w; j++ {
			mid := int32(i + j)
			edges = append(edges, [2]int32{top, mid}, [2]int32{mid, bottom})
		}
		i += w + 1
	}
	for j := i + 1; j < n; j++ { // trailing chain remainder
		edges = append(edges, [2]int32{int32(j - 1), int32(j)})
	}
	return names, edges
}

// randomShape: a layered random DAG (the layeredGraph generator scaled
// up): ~32 tasks per layer, each with two random parents in the
// previous layer. This is the acceptance-criteria shape.
func randomShape(n int) ([]string, [][2]int32) {
	const width = 32
	names := benchNames(n)
	r := rand.New(rand.NewSource(42))
	var edges [][2]int32
	layerStart := 0
	for layerStart < n {
		layerEnd := layerStart + width
		if layerEnd > n {
			layerEnd = n
		}
		if layerStart > 0 {
			prevStart := layerStart - width
			for v := layerStart; v < layerEnd; v++ {
				for k := 0; k < 2; k++ {
					p := prevStart + r.Intn(layerStart-prevStart)
					edges = append(edges, [2]int32{int32(p), int32(v)})
				}
			}
		}
		layerStart = layerEnd
	}
	return names, edges
}

func benchNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		// Realistic workflow task names: category_index, fixed width.
		names[i] = fmt.Sprintf("task_%08d", i)
	}
	return names
}

var benchShapes = []benchShape{
	{"chain", chainShape},
	{"fanout", fanoutShape},
	{"diamond", diamondShape},
	{"random", randomShape},
}

var benchSizes = []int{1_000, 10_000, 100_000}

// benchBuilder loads a shape into a builder, ready to Build.
func benchBuilder(tb testing.TB, names []string, edges [][2]int32) *CSRBuilder {
	b := NewCSRBuilder(len(names), len(edges))
	for _, n := range names {
		b.AddVertex(n)
	}
	for _, e := range edges {
		if err := b.AddEdgeIDs(e[0], e[1]); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

func buildBenchCSR(tb testing.TB, names []string, edges [][2]int32) *CSR {
	c, err := benchBuilder(tb, names, edges).Build()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkSchedulerThroughputCSR drains one whole DAG per iteration
// through the index-based scheduler: NewSchedulerCSR + TakeReadyIDs +
// one CompleteID per task. The CSR itself is the static compiled
// workflow, built once outside the loop — exactly the once-per-run
// split the workflow manager has.
func BenchmarkSchedulerThroughputCSR(b *testing.B) {
	for _, shape := range benchShapes {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s_%d", shape.name, size), func(b *testing.B) {
				names, edges := shape.edges(size)
				c := buildBenchCSR(b, names, edges)
				frontier := make([]int32, 0, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := NewSchedulerCSR(c)
					frontier = append(frontier[:0], s.TakeReadyIDs()...)
					for len(frontier) > 0 {
						id := frontier[len(frontier)-1]
						frontier = frontier[:len(frontier)-1]
						newly, err := s.CompleteID(id)
						if err != nil {
							b.Fatal(err)
						}
						frontier = append(frontier, newly...)
					}
					if !s.Done() {
						b.Fatal("not drained")
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
			})
		}
	}
}

// BenchmarkCSRBuild measures compiling the static structure itself
// (interning + counting-sort fill + topo/levels), amortized once per
// run in the manager.
func BenchmarkCSRBuild(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("random_%d", size), func(b *testing.B) {
			names, edges := randomShape(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildBenchCSR(b, names, edges)
			}
		})
	}
}
