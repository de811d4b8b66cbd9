// Package dag models a scientific workflow as a directed acyclic graph:
// tasks are vertices, data/control dependencies are edges. There is one
// representation — an interning table mapping vertex names to dense
// int32 IDs (Index) and an immutable compressed-sparse-row adjacency
// over those IDs (CSR) — which validation, characterization and the
// workflow manager's Scheduler all run on, so a 100k-task workflow is
// checked and drained without hashing a string or allocating per task.
// The package knows nothing of the workflow JSON format.
package dag

import (
	"fmt"
	"slices"
)

// Index interns vertex names to dense int32 IDs in insertion order. IDs
// are stable for the lifetime of the Index and contiguous in [0, Len).
type Index struct {
	names []string
	ids   map[string]int32
}

// NewIndex returns an empty interning table with capacity hint n.
func NewIndex(n int) *Index {
	return &Index{
		names: make([]string, 0, n),
		ids:   make(map[string]int32, n),
	}
}

// Intern returns the ID of name, assigning the next dense ID on first
// sight.
func (ix *Index) Intern(name string) int32 {
	if id, ok := ix.ids[name]; ok {
		return id
	}
	id := int32(len(ix.names))
	ix.names = append(ix.names, name)
	ix.ids[name] = id
	return id
}

// ID returns the ID of name and whether it is interned.
func (ix *Index) ID(name string) (int32, bool) {
	id, ok := ix.ids[name]
	return id, ok
}

// Name returns the name of id. It panics on out-of-range IDs, which can
// only come from caller bugs, never from data.
func (ix *Index) Name(id int32) string { return ix.names[id] }

// Len returns the number of interned names.
func (ix *Index) Len() int { return len(ix.names) }

// Names returns the backing name slice, indexed by ID. Read-only: the
// caller must not mutate it.
func (ix *Index) Names() []string { return ix.names }

// CSR is an immutable compressed-sparse-row adjacency of a DAG over
// interned vertex IDs. Children(v) and Parents(v) are zero-allocation
// subslice views; the topological order and level assignment are
// computed once at construction. Build one with a CSRBuilder.
type CSR struct {
	idx *Index
	// children of v are children[childStart[v]:childStart[v+1]], sorted
	// by ID; likewise parents.
	childStart  []int32
	children    []int32
	parentStart []int32
	parents     []int32
	// topo is a topological order of all vertices; level[v] is the
	// longest-path depth of v (0 for roots), the paper's phase index.
	topo      []int32
	level     []int32
	numLevels int
}

// CSRBuilder accumulates vertices and edges, then compiles them into an
// immutable CSR with Build.
type CSRBuilder struct {
	idx      *Index
	from, to []int32
}

// NewCSRBuilder returns a builder with capacity hints for vertices and
// edges.
func NewCSRBuilder(vertices, edges int) *CSRBuilder {
	return &CSRBuilder{
		idx:  NewIndex(vertices),
		from: make([]int32, 0, edges),
		to:   make([]int32, 0, edges),
	}
}

// AddVertex interns name and returns its ID.
func (b *CSRBuilder) AddVertex(name string) int32 { return b.idx.Intern(name) }

// Index exposes the builder's interning table.
func (b *CSRBuilder) Index() *Index { return b.idx }

// AddEdgeIDs records the edge from -> to between already-interned IDs.
// Self-edges are rejected; duplicate edges are collapsed at Build.
func (b *CSRBuilder) AddEdgeIDs(from, to int32) error {
	if from == to {
		return fmt.Errorf("dag: self edge on %q", b.idx.Name(from))
	}
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	return nil
}

// Build compiles the accumulated structure. It returns a *CycleError if
// the edges form a cycle. The builder must not be reused after Build.
func (b *CSRBuilder) Build() (*CSR, error) {
	n := int32(b.idx.Len())
	c := &CSR{
		idx:         b.idx,
		childStart:  make([]int32, n+1),
		parentStart: make([]int32, n+1),
	}
	// Counting pass, then prefix sums, then a fill pass — two linear
	// scans over the edge list, no per-vertex allocation.
	for i := range b.from {
		c.childStart[b.from[i]+1]++
		c.parentStart[b.to[i]+1]++
	}
	for v := int32(0); v < n; v++ {
		c.childStart[v+1] += c.childStart[v]
		c.parentStart[v+1] += c.parentStart[v]
	}
	c.children = make([]int32, len(b.from))
	c.parents = make([]int32, len(b.from))
	childNext := make([]int32, n)
	parentNext := make([]int32, n)
	for i := range b.from {
		f, t := b.from[i], b.to[i]
		c.children[c.childStart[f]+childNext[f]] = t
		childNext[f]++
		c.parents[c.parentStart[t]+parentNext[t]] = f
		parentNext[t]++
	}
	// Canonicalize: adjacency segments sorted by ID, duplicates dropped.
	c.children, c.childStart = dedupSegments(c.children, c.childStart)
	c.parents, c.parentStart = dedupSegments(c.parents, c.parentStart)
	if err := c.computeOrder(); err != nil {
		return nil, err
	}
	return c, nil
}

// dedupSegments sorts each CSR segment and removes duplicate entries,
// compacting the value slice in place.
func dedupSegments(vals []int32, start []int32) ([]int32, []int32) {
	w := int32(0)
	for v := 0; v < len(start)-1; v++ {
		seg := vals[start[v]:start[v+1]]
		slices.Sort(seg)
		newStart := w
		for i, x := range seg {
			if i > 0 && x == seg[i-1] {
				continue
			}
			vals[w] = x
			w++
		}
		start[v] = newStart
	}
	start[len(start)-1] = w
	return vals[:w], start
}

// CycleError describes a dependency cycle found by CSRBuilder.Build.
type CycleError struct {
	// Cycle lists the vertices on one detected cycle, in order.
	Cycle []string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("dag: cycle detected: %v", e.Cycle)
}

// computeOrder runs Kahn's algorithm over the CSR, filling topo and
// level, and returns a *CycleError (with names) if the graph is cyclic.
func (c *CSR) computeOrder() error {
	n := int32(c.idx.Len())
	indeg := make([]int32, n)
	for v := int32(0); v < n; v++ {
		indeg[v] = int32(c.parentStart[v+1] - c.parentStart[v])
	}
	c.topo = make([]int32, 0, n)
	c.level = make([]int32, n)
	for v := int32(0); v < n; v++ {
		if indeg[v] == 0 {
			c.topo = append(c.topo, v)
		}
	}
	for head := 0; head < len(c.topo); head++ {
		v := c.topo[head]
		lv := c.level[v]
		if int(lv)+1 > c.numLevels {
			c.numLevels = int(lv) + 1
		}
		for _, ch := range c.Children(v) {
			if c.level[ch] < lv+1 {
				c.level[ch] = lv + 1
			}
			indeg[ch]--
			if indeg[ch] == 0 {
				c.topo = append(c.topo, ch)
			}
		}
	}
	if int32(len(c.topo)) != n {
		return &CycleError{Cycle: c.findCycleNames(indeg)}
	}
	return nil
}

// findCycleNames extracts one cycle from the vertices Kahn's algorithm
// could not drain (indeg > 0), for the CycleError.
func (c *CSR) findCycleNames(indeg []int32) []string {
	// Every undrained vertex lies on or downstream of a cycle; walking
	// parents restricted to undrained vertices must revisit one.
	var start int32 = -1
	for v := int32(0); v < int32(len(indeg)); v++ {
		if indeg[v] > 0 {
			start = v
			break
		}
	}
	if start < 0 {
		return nil
	}
	seen := make(map[int32]int) // vertex -> position in walk
	var walk []int32
	v := start
	for {
		if pos, ok := seen[v]; ok {
			cycle := make([]string, 0, len(walk)-pos)
			for _, x := range walk[pos:] {
				cycle = append(cycle, c.idx.Name(x))
			}
			// The walk followed parent edges, so reverse for forward order.
			for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
				cycle[i], cycle[j] = cycle[j], cycle[i]
			}
			return cycle
		}
		seen[v] = len(walk)
		walk = append(walk, v)
		next := int32(-1)
		for _, p := range c.Parents(v) {
			if indeg[p] > 0 {
				next = p
				break
			}
		}
		if next < 0 {
			return nil // cannot happen on a true cycle
		}
		v = next
	}
}

// Len returns the number of vertices.
func (c *CSR) Len() int { return c.idx.Len() }

// EdgeCount returns the number of (deduplicated) edges.
func (c *CSR) EdgeCount() int { return len(c.children) }

// Index returns the interning table mapping names to IDs.
func (c *CSR) Index() *Index { return c.idx }

// Name returns the name of id.
func (c *CSR) Name(id int32) string { return c.idx.Name(id) }

// ID returns the ID of name and whether the vertex exists.
func (c *CSR) ID(name string) (int32, bool) { return c.idx.ID(name) }

// Children returns the child IDs of v, sorted. The returned slice is a
// view into the CSR; the caller must not mutate it.
func (c *CSR) Children(v int32) []int32 {
	return c.children[c.childStart[v]:c.childStart[v+1]]
}

// Parents returns the parent IDs of v, sorted. Read-only view.
func (c *CSR) Parents(v int32) []int32 {
	return c.parents[c.parentStart[v]:c.parentStart[v+1]]
}

// InDegree returns the number of parents of v.
func (c *CSR) InDegree(v int32) int { return int(c.parentStart[v+1] - c.parentStart[v]) }

// OutDegree returns the number of children of v.
func (c *CSR) OutDegree(v int32) int { return int(c.childStart[v+1] - c.childStart[v]) }

// TopoOrder returns a topological order of all vertex IDs. Read-only
// view.
func (c *CSR) TopoOrder() []int32 { return c.topo }

// Level returns the topological level (phase index) of v: 0 for roots,
// one past the deepest parent otherwise.
func (c *CSR) Level(v int32) int32 { return c.level[v] }

// NumLevels returns the number of topological levels.
func (c *CSR) NumLevels() int { return c.numLevels }

// LevelSlices partitions vertex IDs by level, each slice ordered by ID.
func (c *CSR) LevelSlices() [][]int32 {
	counts := make([]int32, c.numLevels+1)
	for _, lv := range c.level {
		counts[lv+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	flat := make([]int32, len(c.level))
	next := make([]int32, c.numLevels)
	for v := int32(0); v < int32(len(c.level)); v++ {
		lv := c.level[v]
		flat[counts[lv]+next[lv]] = v
		next[lv]++
	}
	out := make([][]int32, c.numLevels)
	for i := 0; i < c.numLevels; i++ {
		out[i] = flat[counts[i]:counts[i+1]]
	}
	return out
}

// HasEdge reports whether the edge from -> to exists.
func (c *CSR) HasEdge(from, to int32) bool {
	_, found := slices.BinarySearch(c.Children(from), to)
	return found
}

// Reachability returns a query that reports whether to is reachable from
// from through one or more edges. The query walks parents back from to
// and never enters a vertex at or above from's level, which no
// descendant of from can occupy. It owns a visited set that it reuses
// across calls, so a batch of queries allocates once; it is not safe for
// concurrent use.
func (c *CSR) Reachability() func(from, to int32) bool {
	var (
		seen  []uint32 // seen[v] == epoch: v was visited by the current query
		epoch uint32
		stack []int32
	)
	return func(from, to int32) bool {
		floor := c.level[from]
		if c.level[to] <= floor {
			return false
		}
		if seen == nil {
			seen = make([]uint32, c.Len())
		}
		epoch++
		if epoch == 0 { // wrapped: stamps of 2^32 queries ago would look current
			clear(seen)
			epoch = 1
		}
		stack = append(stack[:0], to)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range c.Parents(v) {
				if p == from {
					return true
				}
				if c.level[p] > floor && seen[p] != epoch {
					seen[p] = epoch
					stack = append(stack, p)
				}
			}
		}
		return false
	}
}

// CriticalPath returns the longest path through the DAG, as vertex IDs
// in forward order, where vertex v weighs weights[v], and its total
// weight. weights must be indexed by ID. Ties are broken the same way
// on every call: among equally heavy parents the lowest ID wins, among
// equally heavy path ends the first in topological order.
func (c *CSR) CriticalPath(weights []float64) ([]int32, float64) {
	dist := make([]float64, c.Len())
	prev := make([]int32, c.Len())
	best, bestV := -1.0, int32(-1)
	for _, v := range c.topo {
		d, from := weights[v], int32(-1)
		for _, p := range c.Parents(v) {
			if dist[p]+weights[v] > d {
				d, from = dist[p]+weights[v], p
			}
		}
		dist[v], prev[v] = d, from
		if d > best {
			best, bestV = d, v
		}
	}
	if bestV < 0 {
		return nil, 0
	}
	var path []int32
	for v := bestV; v >= 0; v = prev[v] {
		path = append(path, v)
	}
	slices.Reverse(path)
	return path, best
}
