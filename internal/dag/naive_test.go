package dag

import "slices"

// naiveGraph is the reference the CSR is checked against: name-keyed
// adjacency lists queried by the textbook recursive definitions. It
// shares no code with csr.go, so agreement between the two is evidence,
// not tautology. Exponential on dense graphs — keep inputs small.
type naiveGraph struct {
	names             []string // insertion order
	children, parents map[string][]string
}

func newNaive() *naiveGraph {
	return &naiveGraph{children: map[string][]string{}, parents: map[string][]string{}}
}

func (g *naiveGraph) vertex(v string) {
	if !slices.Contains(g.names, v) {
		g.names = append(g.names, v)
	}
}

func (g *naiveGraph) edge(from, to string) {
	g.vertex(from)
	g.vertex(to)
	if !g.hasEdge(from, to) {
		g.children[from] = append(g.children[from], to)
		g.parents[to] = append(g.parents[to], from)
	}
}

func (g *naiveGraph) hasEdge(from, to string) bool { return slices.Contains(g.children[from], to) }

// level is 0 for roots, else one past the deepest parent.
func (g *naiveGraph) level(v string) int {
	l := 0
	for _, p := range g.parents[v] {
		l = max(l, g.level(p)+1)
	}
	return l
}

// reaches reports a path of one or more edges from -> to.
func (g *naiveGraph) reaches(from, to string) bool {
	return slices.ContainsFunc(g.children[from], func(c string) bool { return c == to || g.reaches(c, to) })
}

// heaviest is the weight of the heaviest path ending at v.
func (g *naiveGraph) heaviest(v string, w map[string]float64) float64 {
	d := w[v]
	for _, p := range g.parents[v] {
		d = max(d, g.heaviest(p, w)+w[v])
	}
	return d
}
