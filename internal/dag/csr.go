// Package dag models a scientific workflow as a directed acyclic graph:
// tasks are vertices, data/control dependencies are edges. There is one
// representation — a table mapping vertex names to dense
// int32 IDs (Index) and an immutable compressed-sparse-row adjacency
// over those IDs (CSR) — which validation, characterization and the
// workflow manager's Scheduler all run on, so a 100k-task workflow is
// checked and drained without hashing a string or allocating per task.
// The package knows nothing of the workflow JSON format.
package dag

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Index maps vertex names to dense int32 IDs: a name's ID is its
// position in the names its CSRBuilder was made with, in [0, Len).
type Index struct {
	names []string
	ids   map[string]int32
}

// ID returns the ID of name and whether the index holds it.
func (ix *Index) ID(name string) (int32, bool) {
	id, ok := ix.ids[name]
	return id, ok
}

// Name returns the name of id. It panics on out-of-range IDs, which can
// only come from caller bugs, never from data.
func (ix *Index) Name(id int32) string { return ix.names[id] }

// Len returns the number of names.
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

// CSRBuilder accumulates the edges between a fixed set of vertices,
// then compiles them into an immutable CSR with Build.
type CSRBuilder struct {
	idx      *Index
	from, to []int32
}

// NewCSRBuilder returns a builder whose vertices are the distinct names,
// each one's ID its position, with a capacity hint for edges. The index
// keeps names as its own: the caller must not modify them.
func NewCSRBuilder(names []string, edges int) *CSRBuilder {
	ix := &Index{names: names, ids: make(map[string]int32, len(names))}
	for id, n := range names {
		ix.ids[n] = int32(id)
	}
	return &CSRBuilder{idx: ix, from: make([]int32, 0, edges), to: make([]int32, 0, edges)}
}

// Index exposes the builder's name table.
func (b *CSRBuilder) Index() *Index { return b.idx }

// AddEdgeIDs records the edge from -> to between the builder's IDs.
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
		childStart:  make([]int32, n+2),
		parentStart: make([]int32, n+2),
	}
	// Count one slot up, prefix-sum, fill — two scans of the edge list, no
	// per-vertex allocation: start[v+1] is v's cursor, and ends as v+1's start.
	for i := range b.from {
		c.childStart[b.from[i]+2]++
		c.parentStart[b.to[i]+2]++
	}
	for v := int32(2); v <= n; v++ {
		c.childStart[v] += c.childStart[v-1]
		c.parentStart[v] += c.parentStart[v-1]
	}
	c.children = make([]int32, len(b.from))
	c.parents = make([]int32, len(b.from))
	for i := range b.from {
		f, t := b.from[i], b.to[i]
		c.children[c.childStart[f+1]] = t
		c.childStart[f+1]++
		c.parents[c.parentStart[t+1]] = f
		c.parentStart[t+1]++
	}
	c.childStart, c.parentStart = c.childStart[:n+1], c.parentStart[:n+1]
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

// Index returns the table mapping names to IDs.
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

// TopoOrder returns a topological order of all vertex IDs, level by
// level: Kahn's FIFO queue holds the vertices of one level, then of the
// next, so every vertex of level l comes before any of level l+1. No
// edge joins two vertices of one level. Read-only view.
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

// splitMin is the fewest items Split spreads over goroutines: a property
// of the input, not a knob. Below it a pass costs less than waking a
// core, so a 1,500-task recipe or a 64-task service run stays on one.
const splitMin = 8192

// Split calls fn over contiguous chunks [lo, hi) covering [0, n) and
// returns when every call has: one call, fn(0, n), below splitMin items
// or on one processor, else one per processor (GOMAXPROCS), each on a
// goroutine of its own but the chunk at 0, which runs on the caller's.
// fn must be safe to run on disjoint chunks at once.
func Split(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < splitMin || workers < 2 {
		fn(0, n)
		return
	}
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := size; lo < n; lo += size {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, min(lo+size, n))
		}()
	}
	fn(0, size)
	wg.Wait()
}
