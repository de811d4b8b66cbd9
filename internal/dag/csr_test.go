package dag

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// graphOf builds the reference graph from "from>to" edge specs; a spec
// without '>' is a lone vertex.
func graphOf(specs ...string) *naiveGraph {
	g := newNaive()
	for _, s := range specs {
		if from, to, ok := strings.Cut(s, ">"); ok {
			g.edge(from, to)
		} else {
			g.vertex(s)
		}
	}
	return g
}

func diamond() *naiveGraph { return graphOf("a>b", "a>c", "b>d", "c>d") }

// layered builds a DAG of the given layer count and width, each vertex
// depending on two random vertices of the previous layer.
func layered(layers, width int) *naiveGraph {
	g := newNaive()
	r := rand.New(rand.NewSource(1))
	var prev []string
	for l := 0; l < layers; l++ {
		var cur []string
		for i := 0; i < width; i++ {
			v := fmt.Sprintf("v%d_%d", l, i)
			g.vertex(v)
			for k := 0; k < 2 && len(prev) > 0; k++ {
				g.edge(prev[r.Intn(len(prev))], v)
			}
			cur = append(cur, v)
		}
		prev = cur
	}
	return g
}

// randomDAG adds only forward edges over the vertex order, so it is
// acyclic by construction.
func randomDAG(r *rand.Rand, n int) *naiveGraph {
	g := newNaive()
	for i := 0; i < n; i++ {
		g.vertex(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(4) == 0 {
				g.edge(g.names[i], g.names[j])
			}
		}
	}
	return g
}

// build feeds g's vertices and edges to a CSRBuilder, IDs in insertion
// order.
func build(g *naiveGraph) (*CSR, error) {
	b := NewCSRBuilder(len(g.names), 0)
	for _, v := range g.names {
		b.AddVertex(v)
	}
	for _, v := range g.names {
		for _, ch := range g.children[v] {
			if err := b.AddEdgeIDs(b.AddVertex(v), b.AddVertex(ch)); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

func mustBuild(tb testing.TB, g *naiveGraph) *CSR {
	tb.Helper()
	c, err := build(g)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func mustID(tb testing.TB, c *CSR, name string) int32 {
	tb.Helper()
	id, ok := c.ID(name)
	if !ok {
		tb.Fatalf("vertex %q not interned", name)
	}
	return id
}

// sortedNames maps IDs to names, sorted — the tests' name boundary.
func sortedNames(c *CSR, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.Name(id)
	}
	slices.Sort(out)
	return out
}

func sorted(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

func TestAddVertexIdempotent(t *testing.T) {
	b := NewCSRBuilder(1, 0)
	if first, again := b.AddVertex("x"), b.AddVertex("x"); first != again {
		t.Fatalf("AddVertex(x) = %d then %d", first, again)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestSelfEdgeRejected(t *testing.T) {
	b := NewCSRBuilder(1, 1)
	a := b.AddVertex("a")
	err := b.AddEdgeIDs(a, a)
	if err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("self edge: err = %v, want one naming the vertex", err)
	}
	// The rejected edge was not recorded: the builder still compiles.
	c, err := b.Build()
	if err != nil || c.EdgeCount() != 0 {
		t.Fatalf("after rejected self edge: edges=%d err=%v", c.EdgeCount(), err)
	}
}

func TestCSRBuilderRejectsSelfEdge(t *testing.T) {
	if _, err := build(graphOf("a>b", "b>b")); err == nil {
		t.Fatal("self edge accepted")
	}
}

func TestHasEdge(t *testing.T) {
	c := mustBuild(t, diamond())
	a, b, d := mustID(t, c, "a"), mustID(t, c, "b"), mustID(t, c, "d")
	if !c.HasEdge(a, b) {
		t.Fatal("missing edge a->b")
	}
	if c.HasEdge(b, a) {
		t.Fatal("edge a->b reported in reverse")
	}
	if c.HasEdge(a, d) {
		t.Fatal("path a->..->d reported as an edge")
	}
}

func TestRootsAndLeaves(t *testing.T) {
	c := mustBuild(t, diamond())
	var roots, leaves []int32
	for v := int32(0); v < int32(c.Len()); v++ {
		if c.InDegree(v) == 0 {
			roots = append(roots, v)
		}
		if c.OutDegree(v) == 0 {
			leaves = append(leaves, v)
		}
	}
	if got := sortedNames(c, roots); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("roots = %v", got)
	}
	if got := sortedNames(c, leaves); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf("leaves = %v", got)
	}
}

func TestDegrees(t *testing.T) {
	c := mustBuild(t, diamond())
	a, d := mustID(t, c, "a"), mustID(t, c, "d")
	if c.OutDegree(a) != 2 || c.InDegree(a) != 0 {
		t.Fatalf("a degrees wrong: out=%d in=%d", c.OutDegree(a), c.InDegree(a))
	}
	if c.InDegree(d) != 2 {
		t.Fatalf("InDegree(d) = %d", c.InDegree(d))
	}
}

// topoRespectsEdges checks that TopoOrder is a permutation of the
// vertices with every parent before its children.
func topoRespectsEdges(c *CSR) error {
	if len(c.TopoOrder()) != c.Len() {
		return fmt.Errorf("topo covers %d of %d", len(c.TopoOrder()), c.Len())
	}
	pos := make([]int, c.Len())
	for i, id := range c.TopoOrder() {
		pos[id] = i
	}
	for v := int32(0); v < int32(c.Len()); v++ {
		for _, ch := range c.Children(v) {
			if pos[v] >= pos[ch] {
				return fmt.Errorf("edge %s->%s violates topo order", c.Name(v), c.Name(ch))
			}
		}
	}
	return nil
}

func TestTopoSortDiamond(t *testing.T) {
	if err := topoRespectsEdges(mustBuild(t, diamond())); err != nil {
		t.Fatal(err)
	}
}

func TestCSRTopoOrderRespectsEdges(t *testing.T) {
	if err := topoRespectsEdges(mustBuild(t, layered(6, 6))); err != nil {
		t.Fatal(err)
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	order := func() []string {
		c := mustBuild(t, graphOf("r>z", "r>a", "r>m"))
		out := make([]string, 0, c.Len())
		for _, id := range c.TopoOrder() {
			out = append(out, c.Name(id))
		}
		return out
	}
	if a, b := order(), order(); !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic topo: %v vs %v", a, b)
	}
}

// assertRealCycle fails unless err is a *CycleError naming want vertices
// that form a cycle of g.
func assertRealCycle(t *testing.T, g *naiveGraph, err error, want int) {
	t.Helper()
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("want CycleError, got %v", err)
	}
	if len(ce.Cycle) != want {
		t.Fatalf("cycle = %v, want %d vertices", ce.Cycle, want)
	}
	for i, v := range ce.Cycle {
		if next := ce.Cycle[(i+1)%len(ce.Cycle)]; !g.hasEdge(v, next) {
			t.Fatalf("reported cycle %v has no edge %s->%s", ce.Cycle, v, next)
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g := graphOf("a>b", "b>c", "c>a")
	_, err := build(g)
	assertRealCycle(t, g, err, 3)
}

// TestCSRBuilderDetectsCycle: vertices upstream and downstream of the
// cycle are not part of the report.
func TestCSRBuilderDetectsCycle(t *testing.T) {
	g := graphOf("root>a", "a>b", "b>c", "c>a", "c>tail")
	_, err := build(g)
	assertRealCycle(t, g, err, 3)
}

func TestLevelsCycle(t *testing.T) {
	if _, err := build(graphOf("a>b", "b>a")); err == nil {
		t.Fatal("Build accepted a cyclic graph")
	}
}

func TestLevelsDiamond(t *testing.T) {
	c := mustBuild(t, diamond())
	var levels [][]string
	for _, ids := range c.LevelSlices() {
		levels = append(levels, sortedNames(c, ids))
	}
	if want := [][]string{{"a"}, {"b", "c"}, {"d"}}; !reflect.DeepEqual(levels, want) {
		t.Fatalf("levels = %v, want %v", levels, want)
	}
}

func TestLevelsDeepestParentWins(t *testing.T) {
	// a -> b -> c, a -> c : c must be at level 2, not 1.
	c := mustBuild(t, graphOf("a>b", "b>c", "a>c"))
	if got := c.Level(mustID(t, c, "c")); got != 2 {
		t.Fatalf("level(c) = %d, want 2", got)
	}
}

func TestCriticalPath(t *testing.T) {
	c := mustBuild(t, diamond()) // IDs: a b c d
	path, total := c.CriticalPath([]float64{1, 5, 2, 1})
	if total != 7 {
		t.Fatalf("total = %v, want 7", total)
	}
	if want := []int32{0, 1, 3}; !slices.Equal(path, want) { // a b d
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	c := mustBuild(t, newNaive())
	if path, total := c.CriticalPath(nil); path != nil || total != 0 {
		t.Fatalf("empty graph: path=%v total=%v", path, total)
	}
}

// TestCriticalPathTiesDeterministic: with equal weights both arms of the
// diamond tie; the lowest-ID parent wins, every time.
func TestCriticalPathTiesDeterministic(t *testing.T) {
	c := mustBuild(t, diamond())
	want := []int32{mustID(t, c, "a"), mustID(t, c, "b"), mustID(t, c, "d")}
	for i := 0; i < 20; i++ {
		path, total := c.CriticalPath([]float64{1, 1, 1, 1})
		if total != 3 || !reflect.DeepEqual(path, want) {
			t.Fatalf("run %d: path=%v total=%v, want %v / 3", i, path, total, want)
		}
	}
}

func TestAncestorsDescendants(t *testing.T) {
	c := mustBuild(t, diamond())
	reaches := c.Reachability()
	var ancestorsOfD, descendantsOfA []int32
	for v := int32(0); v < int32(c.Len()); v++ {
		if reaches(v, mustID(t, c, "d")) {
			ancestorsOfD = append(ancestorsOfD, v)
		}
		if reaches(mustID(t, c, "a"), v) {
			descendantsOfA = append(descendantsOfA, v)
		}
		if reaches(v, mustID(t, c, "a")) {
			t.Fatalf("root a has ancestor %s", c.Name(v))
		}
	}
	if got := sortedNames(c, ancestorsOfD); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("ancestors(d) = %v", got)
	}
	if got := sortedNames(c, descendantsOfA); !reflect.DeepEqual(got, []string{"b", "c", "d"}) {
		t.Fatalf("descendants(a) = %v", got)
	}
}

func TestCSRMatchesGraph(t *testing.T) {
	g := layered(6, 8)
	c := mustBuild(t, g)
	edges := 0
	for _, v := range g.names {
		id := mustID(t, c, v)
		if got := c.Name(id); got != v {
			t.Fatalf("Name(%d) = %q, want %q", id, got, v)
		}
		if got, want := sortedNames(c, c.Children(id)), sorted(g.children[v]); !slices.Equal(got, want) {
			t.Fatalf("%s children = %v, want %v", v, got, want)
		}
		if got, want := sortedNames(c, c.Parents(id)), sorted(g.parents[v]); !slices.Equal(got, want) {
			t.Fatalf("%s parents = %v, want %v", v, got, want)
		}
		if c.InDegree(id) != len(g.parents[v]) || c.OutDegree(id) != len(g.children[v]) {
			t.Fatalf("%s degrees disagree", v)
		}
		edges += len(g.children[v])
	}
	if c.Len() != len(g.names) || c.EdgeCount() != edges {
		t.Fatalf("CSR %d/%d vs reference %d/%d", c.Len(), c.EdgeCount(), len(g.names), edges)
	}
}

func TestCSRLevelsMatchGraphLevels(t *testing.T) {
	g := layered(5, 7)
	c := mustBuild(t, g)
	want := map[int][]string{}
	for _, v := range g.names {
		l := g.level(v)
		if got := int(c.Level(mustID(t, c, v))); got != l {
			t.Fatalf("%s level = %d, want %d", v, got, l)
		}
		want[l] = append(want[l], v)
	}
	levels := c.LevelSlices()
	if c.NumLevels() != len(want) || len(levels) != len(want) {
		t.Fatalf("NumLevels = %d, LevelSlices = %d, want %d", c.NumLevels(), len(levels), len(want))
	}
	for i, ids := range levels {
		if !slices.IsSorted(ids) {
			t.Fatalf("level %d not in ID order: %v", i, ids)
		}
		if got := sortedNames(c, ids); !slices.Equal(got, sorted(want[i])) {
			t.Fatalf("level %d = %v, want %v", i, got, want[i])
		}
	}
}

func TestCSRBuilderCollapsesDuplicateEdges(t *testing.T) {
	b := NewCSRBuilder(2, 4)
	a, z := b.AddVertex("a"), b.AddVertex("z")
	for i := 0; i < 3; i++ {
		if err := b.AddEdgeIDs(a, z); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", c.EdgeCount())
	}
	if got := c.Children(a); len(got) != 1 {
		t.Fatalf("children of a = %v", got)
	}
}

func TestCSREmptyAndSingleton(t *testing.T) {
	c := mustBuild(t, newNaive())
	if c.Len() != 0 || c.NumLevels() != 0 || len(c.LevelSlices()) != 0 {
		t.Fatalf("empty CSR: len=%d levels=%d", c.Len(), c.NumLevels())
	}
	c = mustBuild(t, graphOf("only"))
	if c.Len() != 1 || c.NumLevels() != 1 {
		t.Fatalf("singleton CSR: len=%d levels=%d", c.Len(), c.NumLevels())
	}
}

// TestBuildAllocsIndependentOfSize: Build allocates its flat arrays and
// nothing per vertex or per edge.
func TestBuildAllocsIndependentOfSize(t *testing.T) {
	const runs = 5
	allocs := func(n int) float64 {
		names, edges := randomShape(n)
		// A builder compiles once, so stock one per run (and one for
		// AllocsPerRun's warm-up) outside the measured function.
		var builders []*CSRBuilder
		for len(builders) < runs+1 {
			builders = append(builders, benchBuilder(t, names, edges))
		}
		return testing.AllocsPerRun(runs, func() {
			b := builders[len(builders)-1]
			builders = builders[:len(builders)-1]
			if _, err := b.Build(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(200), allocs(20_000); large > small {
		t.Fatalf("Build allocations grow with size: %v at 200 vertices, %v at 20000", small, large)
	}
}

func quickDAG(seed int64, maxN int) (*naiveGraph, *CSR, error) {
	r := rand.New(rand.NewSource(seed))
	g := randomDAG(r, 2+r.Intn(maxN))
	c, err := build(g)
	return g, c, err
}

func TestQuickTopoSortRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		_, c, err := quickDAG(seed, 20)
		return err == nil && topoRespectsEdges(c) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLevelsPartition: LevelSlices holds every vertex exactly once,
// and level[v] is 0 for roots, else one past the deepest parent — the
// definition itself, and the reference's answer.
func TestQuickLevelsPartition(t *testing.T) {
	f := func(seed int64) bool {
		g, c, err := quickDAG(seed, 20)
		if err != nil {
			return false
		}
		var all []int32
		for lv, ids := range c.LevelSlices() {
			for _, id := range ids {
				if int(c.Level(id)) != lv {
					return false
				}
			}
			all = append(all, ids...)
		}
		slices.Sort(all)
		for v := int32(0); v < int32(c.Len()); v++ {
			if int(v) >= len(all) || all[v] != v {
				return false
			}
			want := int32(0)
			for _, p := range c.Parents(v) {
				want = max(want, c.Level(p)+1)
			}
			if c.Level(v) != want || int(want) != g.level(c.Name(v)) {
				return false
			}
		}
		return len(all) == c.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickQueriesMatchReference: HasEdge, Reachability and CriticalPath
// give the reference's answers on random DAGs, for every vertex pair.
func TestQuickQueriesMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		g, c, err := quickDAG(seed, 14)
		if err != nil {
			return false
		}
		reaches := c.Reachability()
		for u := int32(0); u < int32(c.Len()); u++ {
			for v := int32(0); v < int32(c.Len()); v++ {
				un, vn := c.Name(u), c.Name(v)
				if c.HasEdge(u, v) != g.hasEdge(un, vn) || reaches(u, v) != g.reaches(un, vn) {
					t.Logf("seed %d: %s -> %s disagrees", seed, un, vn)
					return false
				}
			}
		}
		r := rand.New(rand.NewSource(seed))
		weights := make([]float64, c.Len())
		byName := map[string]float64{}
		for v := range weights {
			weights[v] = float64(r.Intn(4)) // small integers: ties are common
			byName[c.Name(int32(v))] = weights[v]
		}
		path, total := c.CriticalPath(weights)
		want, sum := 0.0, 0.0
		for _, v := range g.names {
			want = max(want, g.heaviest(v, byName))
		}
		for i, v := range path {
			sum += weights[v]
			if i > 0 && !c.HasEdge(path[i-1], v) {
				return false
			}
		}
		return total == want && sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
