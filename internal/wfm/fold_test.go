package wfm

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wfserverless/internal/journal"
	"wfserverless/internal/memo"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// memJournal is a Journal held in memory: a crashed run's records, or
// any prefix of them, handed to the process that resumes it.
type memJournal struct {
	mu   sync.Mutex
	recs []journal.Record
}

func (j *memJournal) Append(kind uint8, data []byte) error {
	j.mu.Lock()
	j.recs = append(j.recs, journal.Record{Kind: kind, Data: bytes.Clone(data)})
	j.mu.Unlock()
	return nil
}

func (j *memJournal) Sync() error { return nil }

func (j *memJournal) Records() []journal.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return slices.Clip(j.recs)
}

func (j *memJournal) Torn() bool { return false }

// swappableStub is one loopback endpoint whose stub, and so the drive it
// writes, can be replaced between runs: the workflow's api_urls stay
// those of one server.
func swappableStub(t *testing.T) (url string, use func(sharedfs.Drive) func() map[string]int) {
	t.Helper()
	var cur atomic.Pointer[wfbench.Endpoint]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL + "/wfbench", func(d sharedfs.Drive) func() map[string]int {
		stub := wfbench.NewStub(d, 0)
		cur.Store(wfbench.NewEndpoint(stub))
		return stub.Counts
	}
}

// TestResumeFromEveryRecord crashes a run after each of its journal
// records in turn. For every k, a run resumed from the first k records,
// on a drive holding the staged inputs and the outputs of the tasks
// those records completed, must succeed, invoke exactly the tasks they
// did not complete, report as recorded the fold's completed count, leave
// the drive an uninterrupted run leaves, and append records that keep
// checkTransitions' journal invariants.
func TestResumeFromEveryRecord(t *testing.T) {
	cells := []struct {
		name        string
		mode        Scheduling
		batch, memo bool
	}{
		{"phases", SchedulePhases, false, false},
		{"phases/batch", SchedulePhases, true, false},
		{"dependency", ScheduleDependency, false, false},
		{"dependency/batch", ScheduleDependency, true, false},
		{"dependency/memo", ScheduleDependency, false, true},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			url, use := swappableStub(t)
			w := diamondWorkflow(t, 3, 4, url)
			c, err := CompileRunnable(w)
			if err != nil {
				t.Fatal(err)
			}
			var cache *memo.Cache
			options := func(d sharedfs.Drive, j Journal) *Manager {
				return fastManager(t, d, func(o *Options) {
					o.Scheduling = cell.mode
					o.Journal = j
					o.Batching = BatchOptions{Enabled: cell.batch, MaxTasks: 3}
					o.Memoize = cache
				})
			}

			// The uninterrupted reference. A memoized run's cache holds
			// every task, and its drive lost the last diamond's outputs:
			// the run serves the rest from the cache and executes those.
			ref := sharedfs.NewMem()
			use(ref)
			if cell.memo {
				cache = openCache(t, filepath.Join(t.TempDir(), "memo.cache"))
				t.Cleanup(func() { cache.Close() })
				if _, err := options(ref, nil).Run(context.Background(), w); err != nil {
					t.Fatal(err)
				}
				for _, name := range ref.List() {
					if strings.Contains(name, "002") {
						ref.Remove(name)
					}
				}
			}
			full := &memJournal{}
			if _, err := options(ref, full).Run(context.Background(), w); err != nil {
				t.Fatal(err)
			}
			records := full.Records()
			if s := SummarizeJournal(records, false); cell.memo && (s.MemoizedTasks == 0 || s.MemoizedTasks == c.Len()) {
				t.Fatalf("reference run memoized %d of %d tasks, want some", s.MemoizedTasks, c.Len())
			}
			want := driveState(t, ref)

			for k := 0; k <= len(records); k++ {
				prefix := records[:k:k]
				f := foldRecords(prefix)
				d := sharedfs.NewMem()
				for _, e := range c.plan.ext {
					d.WriteFile(e.Name, e.SizeInBytes)
				}
				completed := 0
				for id, task := range c.plan.tasks {
					if !f.tasks[int32(id)].completed {
						continue
					}
					completed++
					for _, file := range task.Files {
						if file.Link == wfformat.LinkOutput {
							d.WriteFile(file.Name, file.SizeInBytes)
						}
					}
				}
				invoked := use(d)
				j := &memJournal{recs: prefix}
				res, err := options(d, j).Resume(context.Background(), w)
				if err != nil {
					t.Fatalf("k=%d: resume: %v", k, err)
				}
				if len(res.Failed) != 0 {
					t.Fatalf("k=%d: failed %v", k, res.Failed)
				}
				calls := invoked()
				for id, task := range c.plan.tasks {
					n, want := calls[task.Name], 1
					if f.tasks[int32(id)].completed {
						want = 0
					}
					if n != want {
						t.Fatalf("k=%d: %s invoked %d time(s), want %d", k, task.Name, n, want)
					}
				}
				switch {
				case k == 0 && res.Resume != nil:
					t.Fatalf("k=0: a fresh run reports a resume %+v", res.Resume)
				case k > 0 && (res.Resume == nil || res.Resume.RecordedCompleted != completed):
					t.Fatalf("k=%d: resume report %+v, want %d recorded completed", k, res.Resume, completed)
				}
				if got := driveState(t, d); !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d: drive\n%v\nwant\n%v", k, got, want)
				}
				checkLives(t, c, j.Records())
				if t.Failed() {
					t.Fatalf("k=%d: journal invariants broken", k)
				}
			}
		})
	}
}
