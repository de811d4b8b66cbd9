package wfm

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wfserverless/internal/journal"
	"wfserverless/internal/wfformat"
)

// goldenJournal is three lives of a four-task run, written by hand so
// that every branch of the summary sees a record: a header, starts and
// completions, a plain and a skipped failure, a run end, a crash (a life
// that ends without one), resume markers, memo hits (one re-executed),
// a foreign record kind, a snapshot, task records naming an ID past the
// header's task count, a second header, an unreadable header and an
// unreadable task record.
func goldenJournal() []journal.Record {
	outs := func(sizes ...int64) *wfformat.Task {
		t := &wfformat.Task{}
		for i, n := range sizes {
			t.Files = append(t.Files, wfformat.File{Link: wfformat.LinkOutput, Name: fmt.Sprintf("out_%d", i), SizeInBytes: n})
		}
		t.Files = append(t.Files, wfformat.File{Link: wfformat.LinkInput, Name: "in", SizeInBytes: 1000})
		return t
	}
	header := func(name string, version int) []byte {
		h := &runHeader{Version: version, OptionsHash: 0xabc, Scheduling: ScheduleDependency,
			TaskCount: 4, Workflow: name, StartedUnix: 1700000000}
		for i := range h.Fingerprint {
			h.Fingerprint[i] = byte(i)
		}
		return h.encode()
	}
	var recs []journal.Record
	add := func(kind uint8, data []byte) { recs = append(recs, journal.Record{Kind: kind, Data: data}) }
	// Life 1: task 0 completes, task 1 fails, task 2 is skipped.
	add(recRunHeader, header("golden", journalRunHeaderVersion))
	add(recTaskStarted, appendTaskStarted(nil, 0, 1))
	add(recTaskCompleted, appendTaskCompleted(nil, 0, outs(100, 23)))
	add(recTaskStarted, appendTaskStarted(nil, 1, 1))
	add(recTaskFailed, appendTaskFailed(nil, 1, false, "boom"))
	add(recTaskFailed, appendTaskFailed(nil, 2, true, "ancestor failed"))
	add(recRunEnd, appendRunEnd(nil, runEndFailed, 2))
	// Life 2: memo hits for 1 and 3, 3 re-executed, 2 started twice,
	// then a crash.
	add(recRunResumed, encodeRunResumed(1, 1, 0))
	add(recTaskMemoized, appendTaskCompleted(nil, 1, outs(50)))
	add(recTaskMemoized, appendTaskCompleted(nil, 3, outs(7, 8)))
	add(recTaskStarted, appendTaskStarted(nil, 3, 1))
	add(recTaskStarted, appendTaskStarted(nil, 2, 1))
	add(recTaskStarted, appendTaskStarted(nil, 2, 2))
	// Life 3: foreign and out-of-range records, then the run finishes.
	add(recRunResumed, encodeRunResumed(3, 2, 1))
	add(42, []byte("foreign"))
	add(journal.KindSnapshot, []byte("snap"))
	add(recTaskStarted, appendTaskStarted(nil, 9, 1))
	add(recTaskCompleted, appendTaskCompleted(nil, 9, outs(5)))
	add(recTaskFailed, appendTaskFailed(nil, 9, true, "out of range"))
	add(recTaskMemoized, appendTaskCompleted(nil, 9, outs(11)))
	add(recRunHeader, header("second", journalRunHeaderVersion))
	add(recRunHeader, header("unreadable", journalRunHeaderVersion+8))
	add(recTaskStarted, nil)
	add(recTaskCompleted, appendTaskCompleted(nil, 2, outs(1)))
	add(recTaskCompleted, appendTaskCompleted(nil, 3, outs(2)))
	add(recRunEnd, appendRunEnd(nil, runEndOK, 0))
	add(recRunEnd, appendRunEnd(nil, 7, 1))
	return recs
}

// summaryText renders every field of a summary, maps in key order.
func summaryText(s *JournalSummary) string {
	var b strings.Builder
	if h := s.Header; h != nil {
		fmt.Fprintf(&b, "header: %s %s %s tasks=%d options=%x started=%d\n",
			h.Workflow, h.Fingerprint, h.Scheduling, h.TaskCount, h.OptionsHash, h.StartedUnix)
	} else {
		b.WriteString("header: none\n")
	}
	kinds := make([]string, 0, len(s.EventCounts))
	for k := range s.EventCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "count %s=%d\n", k, s.EventCounts[k])
	}
	ids := make([]int, 0, len(s.Attempts))
	for id := range s.Attempts {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "attempts %d=%d\n", id, s.Attempts[int32(id)])
	}
	fmt.Fprintf(&b, "completed=%d %v failed=%d skipped=%d\n", s.CompletedTasks, s.CompletedIDs, s.FailedTasks, s.SkippedTasks)
	fmt.Fprintf(&b, "memoized=%d skipped-bytes=%d reexecuted=%d\n", s.MemoizedTasks, s.MemoSkippedBytes, s.MemoReexecuted)
	fmt.Fprintf(&b, "resumes=%+v\nends=%+v\ntorn=%t segments=%d\n", s.Resumes, s.Ends, s.Torn, s.Segments)
	top, n := s.MaxAttemptTasks()
	fmt.Fprintf(&b, "max attempts %v x%d\n", top, n)
	return b.String()
}

// TestSummarizeJournalGolden pins SummarizeJournal's view of a journal
// that exercises every record kind, foreign and unreadable records
// included, to a golden recorded before the summary was rebuilt on the
// fold.
func TestSummarizeJournalGolden(t *testing.T) {
	recs := goldenJournal()
	got := summaryText(SummarizeJournal(recs, true)) + "--- first 8 records, not torn\n" +
		summaryText(SummarizeJournal(recs[:8], false))
	checkGolden(t, "testdata/summary.golden", got)
}
