package dag

import (
	"reflect"
	"testing"
)

// named drives a Scheduler by vertex name: the tests' readable layer
// over the ID API. Results come back as fresh name-sorted slices.
type named struct {
	t *testing.T
	*Scheduler
}

func newNamed(t *testing.T, g *naiveGraph) named {
	t.Helper()
	return named{t, NewSchedulerCSR(mustBuild(t, g))}
}

func (n named) id(v string) int32 { return mustID(n.t, n.c, v) }

func (n named) ready() []string { return sortedNames(n.c, n.ReadyIDs()) }

func (n named) take() []string { return sortedNames(n.c, n.TakeReadyIDs()) }

func (n named) state(v string) VertexState { return n.StateID(n.id(v)) }

func (n named) complete(v string) ([]string, error) {
	newly, err := n.CompleteID(n.id(v))
	return sortedNames(n.c, newly), err
}

func (n named) fail(v string) ([]string, error) {
	skipped, err := n.FailID(n.id(v))
	return sortedNames(n.c, skipped), err
}

// TestSchedulerRejectsCycle: a Scheduler only exists over a compiled
// CSR, and a cyclic graph (which could never drain) does not compile.
func TestSchedulerRejectsCycle(t *testing.T) {
	if _, err := build(graphOf("a>b", "b>a")); err == nil {
		t.Fatal("cyclic graph compiled")
	}
}

func TestSchedulerDiamond(t *testing.T) {
	s := newNamed(t, diamond())
	if got := s.ready(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("initial ready = %v", got)
	}
	if got := s.take(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("TakeReadyIDs = %v", got)
	}
	if len(s.take()) != 0 {
		t.Fatal("second TakeReadyIDs not empty")
	}
	if s.state("a") != StateRunning {
		t.Fatalf("a state = %v", s.state("a"))
	}

	newly, err := s.complete("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(newly, []string{"b", "c"}) {
		t.Fatalf("after a: newly = %v", newly)
	}
	// Newly-ready vertices are handed out as running — dispatchable
	// directly without a TakeReadyIDs round trip.
	if s.state("b") != StateRunning || s.state("c") != StateRunning {
		t.Fatalf("b=%v c=%v", s.state("b"), s.state("c"))
	}

	// d needs BOTH parents: completing only b must not release it.
	newly, err = s.complete("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 0 {
		t.Fatalf("after b: newly = %v, want none (c still running)", newly)
	}
	newly, err = s.complete("c")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(newly, []string{"d"}) {
		t.Fatalf("after c: newly = %v", newly)
	}
	if s.Done() {
		t.Fatal("Done before d completed")
	}
	if _, err := s.complete("d"); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || s.Remaining() != 0 || s.Completed() != 4 {
		t.Fatalf("terminal counts: done=%v remaining=%d completed=%d", s.Done(), s.Remaining(), s.Completed())
	}
}

func TestSchedulerFailSkipsDescendants(t *testing.T) {
	// a -> b -> d, a -> c, and an independent root e.
	s := newNamed(t, graphOf("a>b", "a>c", "b>d", "e"))
	if ready := s.take(); !reflect.DeepEqual(ready, []string{"a", "e"}) {
		t.Fatalf("ready = %v", ready)
	}
	skipped, err := s.fail("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(skipped, []string{"b", "c", "d"}) {
		t.Fatalf("skipped = %v", skipped)
	}
	for _, v := range skipped {
		if s.state(v) != StateSkipped {
			t.Fatalf("%s state = %v", v, s.state(v))
		}
	}
	if s.state("a") != StateFailed {
		t.Fatalf("a state = %v", s.state("a"))
	}
	// The independent root is untouched and the DAG drains.
	if _, err := s.complete("e"); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || s.Failed() != 1 || s.Skipped() != 3 || s.Completed() != 1 {
		t.Fatalf("counts: failed=%d skipped=%d completed=%d", s.Failed(), s.Skipped(), s.Completed())
	}
}

// TestSchedulerFailIDSkipsDescendants drives the raw ID API with no
// name helper in between: FailID hands back the skipped descendants as
// IDs, and a later CompleteID of an unrelated leaf releases nothing.
func TestSchedulerFailIDSkipsDescendants(t *testing.T) {
	c := mustBuild(t, graphOf("a>b", "a>c", "b>d", "e"))
	s := NewSchedulerCSR(c)
	if ready := s.TakeReadyIDs(); len(ready) != 2 {
		t.Fatalf("ready = %d ids", len(ready))
	}
	skipped, err := s.FailID(mustID(t, c, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedNames(c, skipped); !reflect.DeepEqual(got, []string{"b", "c", "d"}) {
		t.Fatalf("skipped = %v", got)
	}
	newly, err := s.CompleteID(mustID(t, c, "e"))
	if err != nil {
		t.Fatal(err)
	}
	if len(newly) != 0 {
		t.Fatalf("completing a leaf released %v", sortedNames(c, newly))
	}
	if !s.Done() || s.Failed() != 1 || s.Skipped() != 3 || s.Completed() != 1 {
		t.Fatalf("counts failed=%d skipped=%d completed=%d", s.Failed(), s.Skipped(), s.Completed())
	}
}

func TestSchedulerFailSharedDescendantOnce(t *testing.T) {
	// Two failing parents share child c: it must be reported skipped
	// exactly once.
	s := newNamed(t, graphOf("a>c", "b>c"))
	s.take()
	skipped, err := s.fail("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(skipped, []string{"c"}) {
		t.Fatalf("first FailID skipped = %v", skipped)
	}
	skipped, err = s.fail("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("second FailID skipped = %v, want none", skipped)
	}
	if s.Skipped() != 1 {
		t.Fatalf("Skipped = %d", s.Skipped())
	}
}

func TestSchedulerDoubleCompleteRejected(t *testing.T) {
	s := newNamed(t, diamond())
	s.take()
	if _, err := s.complete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.complete("a"); err == nil {
		t.Fatal("double CompleteID accepted")
	}
	if _, err := s.complete("d"); err == nil {
		t.Fatal("CompleteID of pending vertex accepted")
	}
	if _, err := s.fail("a"); err == nil {
		t.Fatal("FailID of completed vertex accepted")
	}
}

func TestSchedulerCompleteWithoutTake(t *testing.T) {
	// Completing straight from the ready set (without TakeReadyIDs) is
	// allowed — callers that dispatch from a ReadyIDs peek use this.
	s := newNamed(t, diamond())
	if _, err := s.complete("a"); err != nil {
		t.Fatal(err)
	}
	if got := s.ready(); len(got) != 0 {
		t.Fatalf("ready after direct CompleteID = %v", got)
	}
}

// drainCheckingParents completes every vertex wave by wave, failing if
// one becomes ready before all its parents completed — the partial
// order the levels encode.
func drainCheckingParents(t *testing.T, s *Scheduler) {
	t.Helper()
	c := s.CSR()
	completed := make([]bool, c.Len())
	frontier := append([]int32(nil), s.TakeReadyIDs()...)
	total := 0
	for len(frontier) > 0 {
		var next []int32
		for _, id := range frontier {
			for _, p := range c.Parents(id) {
				if !completed[p] {
					t.Fatalf("%s ready before parent %s", c.Name(id), c.Name(p))
				}
			}
			newly, err := s.CompleteID(id)
			if err != nil {
				t.Fatal(err)
			}
			completed[id] = true
			total++
			next = append(next, newly...) // copy: newly is scratch
		}
		frontier = next
	}
	if !s.Done() || total != c.Len() {
		t.Fatalf("drained %d of %d, done=%v, %d remaining", total, c.Len(), s.Done(), s.Remaining())
	}
}

func TestSchedulerMatchesLevels(t *testing.T) {
	drainCheckingParents(t, NewSchedulerCSR(mustBuild(t, layered(6, 8))))
}

// TestSchedulerIDAPI drains the throughput suite's shapes, whose joins
// and fan-outs are wider than the layered generator's.
func TestSchedulerIDAPI(t *testing.T) {
	for _, shape := range benchShapes {
		names, edges := shape.edges(300)
		drainCheckingParents(t, NewSchedulerCSR(buildBenchCSR(t, names, edges)))
	}
}

func TestSchedulerSeedCompleted(t *testing.T) {
	// Diamond a -> {b, c} -> d with a and b already done (a recovered
	// journal): c must be the only ready vertex, and completing it must
	// release d without b ever running again.
	s := newNamed(t, diamond())
	if err := s.SeedCompletedIDs([]int32{s.id("a"), s.id("b")}); err != nil {
		t.Fatal(err)
	}
	if got := s.ready(); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("ready after seed = %v, want [c]", got)
	}
	if s.Completed() != 2 || s.Remaining() != 2 {
		t.Fatalf("completed=%d remaining=%d after seed", s.Completed(), s.Remaining())
	}
	newly, err := s.complete("c")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(newly, []string{"d"}) {
		t.Fatalf("completing c released %v, want [d]", newly)
	}
	if _, err := s.complete("d"); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatalf("scheduler not drained: %d remaining", s.Remaining())
	}
}

func TestSchedulerSeedWholeGraph(t *testing.T) {
	// Resuming a run that had already finished: every vertex seeded, the
	// scheduler is immediately done and the ready set stays empty.
	s := newNamed(t, diamond())
	all := make([]int32, s.CSR().Len())
	for i := range all {
		all[i] = int32(i)
	}
	if err := s.SeedCompletedIDs(all); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatalf("fully-seeded scheduler not done: %d remaining", s.Remaining())
	}
	if got := s.TakeReadyIDs(); len(got) != 0 {
		t.Fatalf("fully-seeded scheduler has ready set %v", got)
	}
}

func TestSchedulerSeedErrors(t *testing.T) {
	s := newNamed(t, diamond())
	if err := s.SeedCompletedIDs([]int32{99}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	if err := s.SeedCompletedIDs([]int32{s.id("a"), s.id("a")}); err == nil {
		t.Fatal("double seed accepted")
	}
	s2 := newNamed(t, diamond())
	s2.TakeReadyIDs()
	if err := s2.SeedCompletedIDs([]int32{s2.id("a")}); err == nil {
		t.Fatal("seeding a running vertex accepted")
	}
}
