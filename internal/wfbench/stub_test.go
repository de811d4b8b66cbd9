package wfbench

import (
	"context"
	"testing"
	"unsafe"

	"wfserverless/internal/sharedfs"
)

// TestStubCountsOutliveTheirRequest invokes the stub twice under a name
// that aliases a buffer, as a batch's names alias its recycled body,
// then overwrites the buffer: the tally must keep its own copy of the
// key, so Counts is unchanged.
func TestStubCountsOutliveTheirRequest(t *testing.T) {
	s := NewStub(sharedfs.NewMem(), 0)
	buf := []byte("task_a")
	name := unsafe.String(&buf[0], len(buf))
	for i := 0; i < 2; i++ {
		if _, err := s.Invoke(context.Background(), "", &Request{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	copy(buf, "zzzzzz")
	if got := s.Counts(); len(got) != 1 || got["task_a"] != 2 {
		t.Fatalf("Counts after the body was recycled = %v, want map[task_a:2]", got)
	}
}
