package wfbench

import (
	"context"
	"strings"
	"sync"
	"time"

	"wfserverless/internal/sharedfs"
)

// Stub is the Executor the campaigns and tests stand in for a function
// with: no simulated compute, every route accepted. It counts the
// invocation under its task name (the ground truth duplicate checks are
// held against), sleeps the fixed delay, publishes the declared outputs
// to the drive and reports success.
type Stub struct {
	drive sharedfs.Drive
	delay time.Duration

	mu    sync.Mutex
	n     map[string]*int
	total int
}

// NewStub returns a stub publishing to drive after delay.
func NewStub(drive sharedfs.Drive, delay time.Duration) *Stub {
	return &Stub{drive: drive, delay: delay, n: make(map[string]*int)}
}

// Invoke implements Executor.
func (s *Stub) Invoke(_ context.Context, _ string, req *Request) (*Response, error) {
	s.mu.Lock()
	n := s.n[req.Name]
	if n == nil {
		// A batch's names are cuts of its recycled body: the tally keys a
		// copy, and counts through the pointer so the key is never stored
		// again.
		n = new(int)
		s.n[strings.Clone(req.Name)] = n
	}
	*n++
	s.total++
	s.mu.Unlock()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	for name, size := range req.Out {
		s.drive.WriteFile(name, size)
	}
	return &Response{Name: req.Name, OK: true}, nil
}

// Counts returns how often each task name has been invoked.
func (s *Stub) Counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.n))
	for k, v := range s.n {
		out[k] = *v
	}
	return out
}

// Total returns how many invocations the stub has taken.
func (s *Stub) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
