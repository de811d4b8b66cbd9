package dag

import (
	"fmt"
	"slices"
)

// VertexState tracks a vertex through a Scheduler's lifecycle.
type VertexState int

const (
	// StatePending means at least one parent has not completed yet.
	StatePending VertexState = iota
	// StateReady means every parent completed; the vertex is waiting in
	// the ready set to be taken by the caller.
	StateReady
	// StateRunning means the caller took the vertex via TakeReady and
	// has not reported an outcome yet.
	StateRunning
	// StateCompleted means the vertex finished successfully.
	StateCompleted
	// StateFailed means the caller reported the vertex as failed.
	StateFailed
	// StateSkipped means an ancestor failed, so the vertex can never
	// become ready.
	StateSkipped
)

// String names the state for diagnostics.
func (s VertexState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateFailed:
		return "failed"
	case StateSkipped:
		return "skipped"
	}
	return fmt.Sprintf("VertexState(%d)", int(s))
}

// Scheduler tracks the ready frontier of a DAG incrementally: instead of
// re-deriving topological levels after every completion (O(V+E) each
// time), it counts remaining unfinished parents per vertex and updates
// the counts as completions are reported, so the whole execution costs
// O(V+E) total. This is the readiness engine behind the workflow
// manager's dependency-driven scheduling mode.
//
// All bookkeeping lives in flat int32 arrays indexed by interned vertex
// ID over a CSR adjacency — a 100k-task drain performs no string
// hashing, no sorting, and no steady-state allocation. TakeReadyIDs,
// CompleteID and FailID return scratch slices valid only until the next
// Scheduler call.
//
// The lifecycle of a vertex is pending -> ready -> running -> completed
// or failed; descendants of a failed vertex become skipped. A Scheduler
// is not safe for concurrent use; the workflow manager drives it from a
// single event loop.
type Scheduler struct {
	c *CSR
	// remaining counts parents not yet completed, per pending vertex.
	remaining []int32
	state     []VertexState
	// ready is the current frontier in ID order.
	ready []int32
	// terminal counts vertices in a terminal state (completed, failed,
	// or skipped).
	terminal  int
	completed int
	skipped   int
	failed    int
	// newly and stack are scratch buffers reused across CompleteID and
	// FailID calls.
	newly []int32
	stack []int32
}

// NewSchedulerCSR builds a Scheduler over a compiled CSR. A CSR is
// acyclic by construction, so no error is possible.
func NewSchedulerCSR(c *CSR) *Scheduler {
	n := int32(c.Len())
	s := &Scheduler{
		c:         c,
		remaining: make([]int32, n),
		state:     make([]VertexState, n),
	}
	for v := int32(0); v < n; v++ {
		d := int32(c.InDegree(v))
		s.remaining[v] = d
		if d == 0 {
			s.state[v] = StateReady
			s.ready = append(s.ready, v)
		}
	}
	return s
}

// CSR returns the compiled adjacency the scheduler runs on.
func (s *Scheduler) CSR() *CSR { return s.c }

// StateID returns the lifecycle state of id.
func (s *Scheduler) StateID(id int32) VertexState { return s.state[id] }

// ReadyIDs returns the current ready frontier in ID order. Read-only
// view, valid until the next Scheduler call.
func (s *Scheduler) ReadyIDs() []int32 { return s.ready }

// TakeReadyIDs drains the ready set, marking every returned vertex
// running. The returned slice is valid until the next TakeReadyIDs
// call; the caller must eventually report each ID via CompleteID or
// FailID.
func (s *Scheduler) TakeReadyIDs() []int32 {
	out := s.ready
	s.ready = s.ready[len(s.ready):]
	for _, id := range out {
		s.state[id] = StateRunning
	}
	return out
}

// SeedCompletedIDs marks ids completed before execution begins — the
// resume path: a recovered journal's done-set is folded in so the ready
// frontier starts exactly where the crashed run stopped. Children whose
// parents are all seeded become ready. Must be called before any
// TakeReadyIDs/CompleteID/FailID activity; it is an error to seed a
// vertex twice or after execution has started (a running or terminal
// vertex).
func (s *Scheduler) SeedCompletedIDs(ids []int32) error {
	for _, id := range ids {
		if id < 0 || int(id) >= s.c.Len() {
			return fmt.Errorf("dag: SeedCompletedIDs: id %d out of range", id)
		}
		switch s.state[id] {
		case StateReady:
			s.dropReady(id)
		case StatePending:
		default:
			return fmt.Errorf("dag: SeedCompletedIDs(%q): vertex is %s", s.c.Name(id), s.state[id])
		}
		s.state[id] = StateCompleted
		s.terminal++
		s.completed++
	}
	// Parent counts second, so a seeded child is never re-readied by its
	// seeded parent regardless of the order ids arrived in.
	for _, id := range ids {
		for _, c := range s.c.Children(id) {
			s.remaining[c]--
			if s.remaining[c] == 0 && s.state[c] == StatePending {
				s.state[c] = StateReady
				s.ready = append(s.ready, c)
			}
		}
	}
	slices.Sort(s.ready)
	return nil
}

// CompleteID reports that id finished successfully and returns the IDs
// that became ready as a result, in ID order. The returned vertices are
// marked running (as if taken), so the caller can dispatch them
// directly. The slice is scratch, valid until the next CompleteID or
// FailID call. It is an error to complete a vertex that is not running
// or ready.
func (s *Scheduler) CompleteID(id int32) ([]int32, error) {
	if err := s.leaveActive(id, "Complete"); err != nil {
		return nil, err
	}
	s.state[id] = StateCompleted
	s.terminal++
	s.completed++
	s.newly = s.newly[:0]
	for _, c := range s.c.Children(id) {
		s.remaining[c]--
		if s.remaining[c] == 0 && s.state[c] == StatePending {
			s.state[c] = StateRunning
			s.newly = append(s.newly, c)
		}
	}
	return s.newly, nil
}

// FailID reports that id failed and returns every descendant that can
// now never run, in discovery order; those descendants are marked
// skipped. Descendants already skipped by an earlier failure are not
// returned again. The slice is scratch, valid until the next CompleteID
// or FailID call.
func (s *Scheduler) FailID(id int32) ([]int32, error) {
	if err := s.leaveActive(id, "Fail"); err != nil {
		return nil, err
	}
	s.state[id] = StateFailed
	s.terminal++
	s.failed++
	// Every pending descendant is unreachable: one of its ancestors
	// (id) will never complete.
	s.newly = s.newly[:0]
	s.stack = append(s.stack[:0], s.c.Children(id)...)
	for len(s.stack) > 0 {
		c := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if s.state[c] != StatePending {
			continue
		}
		s.state[c] = StateSkipped
		s.terminal++
		s.skipped++
		s.newly = append(s.newly, c)
		s.stack = append(s.stack, s.c.Children(c)...)
	}
	return s.newly, nil
}

// leaveActive validates that id may leave the active (ready or running)
// states and removes it from the ready frontier if still there.
func (s *Scheduler) leaveActive(id int32, op string) error {
	switch s.state[id] {
	case StateRunning:
	case StateReady:
		s.dropReady(id)
	default:
		return fmt.Errorf("dag: %s(%q): vertex is %s", op, s.c.Name(id), s.state[id])
	}
	return nil
}

// Done reports whether every vertex reached a terminal state.
func (s *Scheduler) Done() bool { return s.terminal == s.c.Len() }

// Remaining returns the number of vertices not yet terminal.
func (s *Scheduler) Remaining() int { return s.c.Len() - s.terminal }

// Completed returns the number of successfully completed vertices.
func (s *Scheduler) Completed() int { return s.completed }

// Failed returns the number of failed vertices.
func (s *Scheduler) Failed() int { return s.failed }

// Skipped returns the number of vertices skipped due to ancestor
// failures.
func (s *Scheduler) Skipped() int { return s.skipped }

// dropReady removes id from the ready slice. Rare path: only reached
// when a vertex is completed or failed without having been taken.
func (s *Scheduler) dropReady(id int32) {
	for i, r := range s.ready {
		if r == id {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			return
		}
	}
}
