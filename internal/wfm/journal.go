package wfm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"wfserverless/internal/journal"
	"wfserverless/internal/wfformat"
)

// Journal record kinds, layered on the opaque (kind, payload) records of
// internal/journal. Payloads are little-endian varint encodings keyed by
// the CSR's interned int32 task IDs — stable across processes because
// Compile interns names in sorted order and the run header's fingerprint
// pins the workflow content.
const (
	// recRunHeader opens a run: format version, workflow fingerprint,
	// options hash, scheduling mode, task count, workflow name, unix
	// start time.
	recRunHeader uint8 = 1
	// recTaskStarted marks one execution attempt of a task: id, attempt
	// number (1-based, counted across process lifetimes).
	recTaskStarted uint8 = 2
	// recTaskCompleted marks a successful task: id plus its output file
	// names and sizes, so resume can verify the products still exist.
	recTaskCompleted uint8 = 3
	// recTaskFailed marks a terminal failure: id, flags (bit 0 = skipped
	// because an ancestor failed), error message.
	recTaskFailed uint8 = 4
	// recRunEnd closes a run attempt: status byte (0 ok, 1 failed,
	// 2 cancelled), failed-task count.
	recRunEnd uint8 = 5
	// recRunResumed marks a resume point: recorded-completed, verified
	// (outputs present, invocation skipped), and re-executed (outputs
	// vanished) counts.
	recRunResumed uint8 = 6
	// recTaskMemoized marks a task seeded as completed from the memo
	// cache (Options.Memoize): same payload as recTaskCompleted — id
	// plus output names and sizes — and treated identically on resume,
	// so a crashed memoized run never re-probes its way into
	// re-invoking a task this run already accounted for.
	recTaskMemoized uint8 = 7
)

// journalRunHeaderVersion is bumped on incompatible payload changes.
const journalRunHeaderVersion = 1

// runHeader is the decoded recRunHeader payload.
type runHeader struct {
	Version     int
	Fingerprint wfformat.Hash
	OptionsHash uint64
	Scheduling  Scheduling
	TaskCount   int
	Workflow    string
	StartedUnix int64
}

func (h *runHeader) encode() []byte {
	b := make([]byte, 0, 64+len(h.Workflow))
	b = append(b, byte(h.Version))
	b = append(b, h.Fingerprint[:]...)
	b = binary.AppendUvarint(b, h.OptionsHash)
	b = append(b, byte(h.Scheduling))
	b = binary.AppendUvarint(b, uint64(h.TaskCount))
	b = journal.AppendField(b, h.Workflow)
	b = binary.AppendVarint(b, h.StartedUnix)
	return b
}

func decodeRunHeader(data []byte) (*runHeader, error) {
	d := journal.NewCursor(data)
	h := &runHeader{Version: int(d.Byte())}
	if h.Version != journalRunHeaderVersion {
		return nil, fmt.Errorf("wfm: journal header version %d (want %d)", h.Version, journalRunHeaderVersion)
	}
	copy(h.Fingerprint[:], d.Bytes(len(h.Fingerprint)))
	h.OptionsHash = d.Uvarint()
	h.Scheduling = Scheduling(d.Byte())
	h.TaskCount = int(d.Uvarint())
	h.Workflow = string(d.Field())
	h.StartedUnix = d.Varint()
	if d.Err() != nil {
		return nil, fmt.Errorf("wfm: corrupt journal header: %w", d.Err())
	}
	return h, nil
}

// optionsHash digests the options that change a run's semantics — a
// resumed run with a different hash still executes (resume validates
// content via the fingerprint, not configuration), but the mismatch is
// surfaced as a Result warning.
func (o *Options) optionsHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "s=%d c=%t k=%t r=%d t=%g i=%g p=%g m=%t",
		o.Scheduling, o.ContinueOnError, o.SkipStageInputs,
		o.Retries, o.TaskTimeout, o.InputWait, o.PhaseDelay,
		o.Memoize != nil)
	return h.Sum64()
}

// taskOutput is one recorded output product of a completed task.
type taskOutput struct {
	Name string
	Size int64
}

// The task-lifecycle encoders append into a caller-owned buffer — the
// run's hot path reuses runJournal.scratch so journaling a task costs
// zero heap allocations in steady state. Each record kind's decoder sits
// beside its encoder; ok is false for a payload it cannot read.

func appendTaskStarted(b []byte, id int32, attempt int) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	b = binary.AppendUvarint(b, uint64(attempt))
	return b
}

func decodeTaskStarted(data []byte) (id int32, attempt int, ok bool) {
	d := journal.NewCursor(data)
	id, ok = taskID(d.Uvarint())
	attempt = int(d.Uvarint())
	return id, attempt, ok && d.Err() == nil
}

// taskID narrows a decoded task ID; one past int32 names no task.
func taskID(v uint64) (int32, bool) { return int32(v), v <= math.MaxInt32 }

// appendTaskCompleted encodes the completion straight off the task's
// declared output files, skipping any intermediate slice.
func appendTaskCompleted(b []byte, id int32, t *wfformat.Task) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	n := 0
	for _, f := range t.Files {
		if f.Link == wfformat.LinkOutput {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	for _, f := range t.Files {
		if f.Link == wfformat.LinkOutput {
			b = journal.AppendField(b, f.Name)
			b = binary.AppendUvarint(b, uint64(f.SizeInBytes))
		}
	}
	return b
}

// decodeTaskCompleted reads a recTaskCompleted or recTaskMemoized
// payload: the task and its output names and sizes.
func decodeTaskCompleted(data []byte) (id int32, outs []taskOutput, ok bool) {
	d := journal.NewCursor(data)
	id, ok = taskID(d.Uvarint())
	cnt := d.Uvarint()
	if !ok || d.Err() != nil || cnt > uint64(len(d.Rest())) {
		return 0, nil, false
	}
	outs = make([]taskOutput, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		name := d.Field()
		outs = append(outs, taskOutput{Name: string(name), Size: int64(d.Uvarint())})
	}
	return id, outs, d.Err() == nil
}

func appendTaskFailed(b []byte, id int32, skipped bool, msg string) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	var flags byte
	if skipped {
		flags |= 1
	}
	b = append(b, flags)
	b = journal.AppendField(b, msg)
	return b
}

func decodeTaskFailed(data []byte) (id int32, skipped bool, msg string, ok bool) {
	d := journal.NewCursor(data)
	id, ok = taskID(d.Uvarint())
	skipped = d.Byte()&1 != 0
	msg = string(d.Field())
	return id, skipped, msg, ok && d.Err() == nil
}

func appendRunEnd(b []byte, status byte, failed int) []byte {
	return binary.AppendUvarint(append(b, status), uint64(failed))
}

func decodeRunEnd(data []byte) (status byte, failed int, ok bool) {
	d := journal.NewCursor(data)
	status = d.Byte()
	failed = int(d.Uvarint())
	return status, failed, d.Err() == nil
}

func encodeRunResumed(recorded, verified, reexecuted int) []byte {
	b := make([]byte, 0, 16)
	b = binary.AppendUvarint(b, uint64(recorded))
	b = binary.AppendUvarint(b, uint64(verified))
	b = binary.AppendUvarint(b, uint64(reexecuted))
	return b
}

func decodeRunResumed(data []byte) (m ResumeMarker, ok bool) {
	d := journal.NewCursor(data)
	m = ResumeMarker{Recorded: int(d.Uvarint()), Verified: int(d.Uvarint()), Reexecuted: int(d.Uvarint())}
	return m, d.Err() == nil
}

// Run-end status bytes.
const (
	runEndOK        byte = 0
	runEndFailed    byte = 1
	runEndCancelled byte = 2
)

// runJournal is the manager's writer over the journal, the run's first
// sink (transition.go). Append errors are sticky and surfaced once at
// run end as a Result warning — a sick disk must not take down an
// otherwise healthy workflow, but the operator has to learn the journal
// is no longer protecting the run.
type runJournal struct {
	j       Journal
	p       *invocationPlan
	mu      sync.Mutex
	failed  error
	started []int32 // execution attempts per id so far, replay-seeded
	scratch []byte  // encode buffer, reused under mu — Append copies it
}

// newRunJournal opens the run's framing in Options.Journal: the run
// header for a fresh run, the resume marker for a recovered one (rec).
func (m *Manager) newRunJournal(c *Compiled, rec *recovery) *runJournal {
	rj := &runJournal{j: m.opts.Journal, p: c.plan, started: make([]int32, c.Len()), scratch: make([]byte, 0, 256)}
	if rec != nil {
		copy(rj.started, rec.attempts)
		rj.appendLocked(recRunResumed, encodeRunResumed(
			rec.report.RecordedCompleted, rec.report.SkippedInvocations, rec.report.Reexecuted))
		return rj
	}
	h := &runHeader{
		Version:     journalRunHeaderVersion,
		Fingerprint: c.fingerprint(),
		OptionsHash: m.opts.optionsHash(),
		Scheduling:  m.opts.Scheduling,
		TaskCount:   c.Len(),
		Workflow:    c.w.Name,
		StartedUnix: time.Now().Unix(),
	}
	rj.appendLocked(recRunHeader, h.encode())
	return rj
}

// appendLocked appends one record; callers hold mu, or own rj alone.
func (rj *runJournal) appendLocked(kind uint8, data []byte) {
	if err := rj.j.Append(kind, data); err != nil && rj.failed == nil {
		rj.failed = err
	}
}

// takeError reports the first append failure, if any.
func (rj *runJournal) takeError() error {
	if rj == nil {
		return nil
	}
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.failed
}

// ResumeReport summarizes what a resumed run recovered from its journal.
type ResumeReport struct {
	// RecordedCompleted is how many tasks the journal recorded as
	// completed before the crash.
	RecordedCompleted int
	// SkippedInvocations is how many of those were verified (outputs
	// still on the shared drive) and therefore never re-invoked.
	SkippedInvocations int
	// Reexecuted is how many recorded-completed tasks had to run again
	// because their outputs had vanished from the drive.
	Reexecuted int
	// PriorAttempts is the total number of execution attempts the
	// journal recorded before this resume.
	PriorAttempts int
	// Torn reports that the journal ended in a torn record — the
	// signature of a writer killed mid-append. Harmless: the torn tail
	// was discarded and its tasks simply re-run.
	Torn bool
}

// recovery is the decoded resume state handed to the run.
type recovery struct {
	header   *runHeader
	doneIDs  []int32 // verified-completed ids, ascending
	doneSet  []bool  // by id
	attempts []int32 // prior started counts by id
	outs     map[int32][]taskOutput
	report   ResumeReport
}

// runState threads journaling, resume, memoization and health context
// through the run, and the sinks its transitions go to. A fresh,
// unjournaled, unmemoized run carries nil planes and no sinks.
type runState struct {
	rj     *runJournal
	rec    *recovery
	memo   *memoState
	health *healthState
	sinks  []sink
	bodies requestBodies // of the tasks outside seedIDs
}

// seedIDs is the union of the recovered and memoized ID sets, ascending.
// The sets are disjoint (the memo probe skips journal-recovered tasks)
// and each is already sorted; only a resumed memoized run has both.
func (st *runState) seedIDs() []int32 {
	var a, b []int32
	if st.rec != nil {
		a = st.rec.doneIDs
	}
	if st.memo != nil {
		b = st.memo.hitIDs
	}
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := slices.Concat(a, b)
	slices.Sort(out)
	return out
}

// recoverRun decodes journal records into a recovery: header validation
// (fingerprint must match the workflow being resumed), the completed
// set, and prior attempt counts. Output verification against the drive
// happens separately so this stays pure decoding.
func (m *Manager) recoverRun(c *Compiled, recs []journal.Record, torn bool) (*recovery, error) {
	w, n := c.w, c.Len()
	var header *runHeader
	rec := &recovery{
		doneSet:  make([]bool, n),
		attempts: make([]int32, n),
	}
	rec.report.Torn = torn
	completedOuts := make(map[int32][]taskOutput)
	for _, r := range recs {
		switch r.Kind {
		case recRunHeader:
			h, err := decodeRunHeader(r.Data)
			if err != nil {
				return nil, err
			}
			if header == nil {
				header = h
			}
		case recTaskStarted:
			if id, _, ok := decodeTaskStarted(r.Data); ok && int(id) < n {
				rec.attempts[id]++
				rec.report.PriorAttempts++
			}
		case recTaskCompleted, recTaskMemoized:
			// A memoized task is a completion from recovery's point of
			// view: its products are on the drive (verified below like any
			// other) and it must not be re-invoked on resume.
			if id, outs, ok := decodeTaskCompleted(r.Data); ok && int(id) < n {
				rec.doneSet[id] = true
				completedOuts[id] = outs
			}
		case recTaskFailed, recRunEnd, recRunResumed, journal.KindSnapshot:
			// Failures re-run on resume; end/resume markers and snapshots
			// carry no per-task state.
		}
	}
	if header == nil {
		return nil, errors.New("wfm: journal has records but no run header; not a wfm journal")
	}
	if fp := c.fingerprint(); fp != header.Fingerprint {
		return nil, fmt.Errorf("wfm: journal fingerprint %s does not match workflow %s (%s); refusing to resume",
			header.Fingerprint, w.Name, fp)
	}
	if header.TaskCount != n {
		return nil, fmt.Errorf("wfm: journal task count %d does not match workflow (%d)", header.TaskCount, n)
	}
	rec.header = header
	for id := int32(0); int(id) < n; id++ {
		if rec.doneSet[id] {
			rec.report.RecordedCompleted++
			rec.doneIDs = append(rec.doneIDs, id)
		}
	}
	rec.outs = completedOuts
	return rec, nil
}

// verifyOutputs checks that every recorded-completed task's outputs are
// still on the shared drive; tasks whose products vanished are dropped
// from the done-set so they re-run.
func (m *Manager) verifyOutputs(rec *recovery) {
	kept := rec.doneIDs[:0]
	for _, id := range rec.doneIDs {
		ok := true
		for _, o := range rec.outs[id] {
			if !m.opts.Drive.Exists(o.Name) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, id)
			rec.report.SkippedInvocations++
		} else {
			rec.doneSet[id] = false
			rec.report.Reexecuted++
		}
	}
	rec.doneIDs = kept
}

// JournalSummary is the analysis view of a run journal.
type JournalSummary struct {
	Header *runHeaderView
	// EventCounts maps record kind name to occurrences.
	EventCounts map[string]int
	// Attempts maps task ID to execution attempts recorded.
	Attempts map[int32]int
	// CompletedTasks is the number of distinct tasks with a completion
	// record; FailedTasks likewise for terminal failures.
	CompletedTasks int
	FailedTasks    int
	SkippedTasks   int
	// CompletedIDs lists the distinct completed task IDs, ascending.
	// Task IDs are the compiled CSR's interned indices — sorted task
	// name order — so verification harnesses can map them back to
	// names without the original plan in hand.
	CompletedIDs []int32
	// MemoizedTasks is the number of distinct tasks seeded from the
	// memo cache instead of executing; MemoSkippedBytes sums the output
	// sizes those hits did not have to recompute. MemoReexecuted counts
	// memoized tasks that nonetheless have an execution attempt in the
	// same journal — a cache hit later invalidated (outputs vanished
	// between crash and resume) and re-run.
	MemoizedTasks    int
	MemoSkippedBytes int64
	MemoReexecuted   int
	// Resumes lists resume markers in order.
	Resumes []ResumeMarker
	// Ends lists run-end markers in order.
	Ends []RunEndMarker
	// Torn reports the journal ended in a torn record.
	Torn bool
	// Segments is the number of segment files on disk.
	Segments int
}

// runHeaderView is the exported face of the run header.
type runHeaderView struct {
	Workflow    string
	Fingerprint string
	Scheduling  string
	TaskCount   int
	OptionsHash uint64
	StartedUnix int64
}

// ResumeMarker is one recRunResumed record.
type ResumeMarker struct {
	Recorded, Verified, Reexecuted int
}

// RunEndMarker is one recRunEnd record.
type RunEndMarker struct {
	Status string
	Failed int
}

// kindNames and statusNames name record kinds and run-end statuses for
// the summary.
var (
	kindNames = [...]string{journal.KindSnapshot: "snapshot", recRunHeader: "run-header",
		recTaskStarted: "task-started", recTaskCompleted: "task-completed", recTaskFailed: "task-failed",
		recRunEnd: "run-end", recRunResumed: "run-resumed", recTaskMemoized: "task-memoized"}
	statusNames = [...]string{runEndOK: "ok", runEndFailed: "failed", runEndCancelled: "cancelled"}
)

func kindName(k uint8) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", k)
}

func statusName(s byte) string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status-%d", s)
}

// ReadRunJournal replays the journal at path (a directory or a single
// segment file) and summarizes it (SummarizeJournal).
func ReadRunJournal(path string) (*JournalSummary, error) {
	rep, err := journal.Read(path)
	if err != nil {
		return nil, err
	}
	s := SummarizeJournal(rep.Records, rep.Torn)
	s.Segments = len(rep.Segments)
	return s, nil
}

// SummarizeJournal decodes a run's journal records, torn at the end or
// not, into an analysis summary of the manager's record taxonomy.
// Tolerant of foreign records.
func SummarizeJournal(records []journal.Record, torn bool) *JournalSummary {
	s := &JournalSummary{
		EventCounts: make(map[string]int),
		Attempts:    make(map[int32]int),
		Torn:        torn,
	}
	completed := make(map[int32]bool)
	failed := make(map[int32]bool)
	memoized := make(map[int32]bool)
	for _, r := range records {
		s.EventCounts[kindName(r.Kind)]++
		switch r.Kind {
		case recRunHeader:
			h, err := decodeRunHeader(r.Data)
			if err != nil || s.Header != nil {
				continue
			}
			s.Header = &runHeaderView{
				Workflow:    h.Workflow,
				Fingerprint: h.Fingerprint.String(),
				Scheduling:  h.Scheduling.String(),
				TaskCount:   h.TaskCount,
				OptionsHash: h.OptionsHash,
				StartedUnix: h.StartedUnix,
			}
		case recTaskStarted:
			if id, _, ok := decodeTaskStarted(r.Data); ok {
				s.Attempts[id]++
			}
		case recTaskCompleted, recTaskMemoized:
			id, outs, ok := decodeTaskCompleted(r.Data)
			if !ok {
				continue
			}
			completed[id] = true
			if r.Kind == recTaskMemoized {
				memoized[id] = true
				for _, o := range outs {
					s.MemoSkippedBytes += o.Size
				}
			}
		case recTaskFailed:
			if id, skipped, _, ok := decodeTaskFailed(r.Data); ok {
				failed[id] = true
				if skipped {
					s.SkippedTasks++
				}
			}
		case recRunEnd:
			if status, n, ok := decodeRunEnd(r.Data); ok {
				s.Ends = append(s.Ends, RunEndMarker{Status: statusName(status), Failed: n})
			}
		case recRunResumed:
			if m, ok := decodeRunResumed(r.Data); ok {
				s.Resumes = append(s.Resumes, m)
			}
		}
	}
	s.CompletedTasks = len(completed)
	s.CompletedIDs = make([]int32, 0, len(completed))
	for id := range completed {
		s.CompletedIDs = append(s.CompletedIDs, id)
	}
	slices.Sort(s.CompletedIDs)
	s.FailedTasks = len(failed)
	s.MemoizedTasks = len(memoized)
	for id := range memoized {
		if s.Attempts[id] > 0 {
			s.MemoReexecuted++
		}
	}
	return s
}

// MaxAttemptTasks returns the task IDs with the highest recorded attempt
// count, sorted, plus that count — the "which task kept crashing us"
// question.
func (s *JournalSummary) MaxAttemptTasks() ([]int32, int) {
	max := 0
	for _, n := range s.Attempts {
		if n > max {
			max = n
		}
	}
	if max <= 0 {
		return nil, 0
	}
	var ids []int32
	for id, n := range s.Attempts {
		if n == max {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	return ids, max
}
