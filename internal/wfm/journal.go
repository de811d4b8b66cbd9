package wfm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
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

// The task-lifecycle encoders append into a caller-owned buffer — the
// run's hot path reuses runJournal.scratch so journaling a task costs
// zero heap allocations in steady state. fold.apply reads them back.

func appendTaskStarted(b []byte, id int32, attempt int) []byte {
	b = binary.AppendUvarint(b, uint64(id))
	b = binary.AppendUvarint(b, uint64(attempt))
	return b
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
// payload: the task and the summed sizes of its outputs. The count it
// reads bounds nothing but the loop, which stops at the payload's end.
func decodeTaskCompleted(data []byte) (id int32, bytes int64, ok bool) {
	d := journal.NewCursor(data)
	id, ok = taskID(d.Uvarint())
	for cnt := d.Uvarint(); cnt > 0 && d.Err() == nil; cnt-- {
		d.Field()
		bytes += int64(d.Uvarint())
	}
	return id, bytes, ok && d.Err() == nil
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

func appendRunEnd(b []byte, status byte, failed int) []byte {
	return binary.AppendUvarint(append(b, status), uint64(failed))
}

func encodeRunResumed(recorded, verified, reexecuted int) []byte {
	b := make([]byte, 0, 16)
	b = binary.AppendUvarint(b, uint64(recorded))
	b = binary.AppendUvarint(b, uint64(verified))
	b = binary.AppendUvarint(b, uint64(reexecuted))
	return b
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

// recovery is the resume state handed to the run.
type recovery struct {
	header   *runHeader
	doneIDs  []int32 // verified-completed ids, ascending
	doneSet  []bool  // by id
	attempts []int32 // prior started counts by id
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

// fold is what a run's records add up to, applied in record order. It
// is the one reader of the record kinds: resume (recoverRun), the
// analysis summary (SummarizeJournal) and the tests' journal checks all
// apply records to a fold. Task IDs are kept as the records give them,
// an ID past the compiled task count included; nothing is sized from a
// count read out of a record.
type fold struct {
	header    *runHeader // the first readable run header
	headerErr error      // why the first unreadable one was not
	counts    [256]int   // records by kind
	tasks     map[int32]taskFold
	skipped   int   // task-failed records flagged skipped
	memoBytes int64 // output bytes the task-memoized records name
	resumes   []ResumeMarker
	ends      []RunEndMarker
}

// taskFold is what one task's records say of it.
type taskFold struct {
	attempts                    int // task-started records
	completed, memoized, failed bool
}

// step is what apply read from one record: whether it opens a life of
// the run (a run header or a resume marker), whether it is a task record
// and which task, and whether its payload was unreadable.
type step struct {
	life, task, bad bool
	id              int32
	skipped         bool
}

// foldRecords applies records, in order, to a new fold.
func foldRecords(recs []journal.Record) *fold {
	f := &fold{}
	for _, r := range recs {
		f.apply(r)
	}
	return f
}

// apply folds one record in. A record it cannot read is counted and
// otherwise ignored; a foreign kind or a snapshot carries no run state.
func (f *fold) apply(r journal.Record) step {
	f.counts[r.Kind]++
	var s step
	var t taskFold // what the record adds to its task
	d := journal.NewCursor(r.Data)
	ok := true
	switch r.Kind {
	case recRunHeader:
		s.life = true
		h, err := decodeRunHeader(r.Data)
		if ok = err == nil; !ok && f.headerErr == nil {
			f.headerErr = err
		} else if ok && f.header == nil {
			f.header = h
		}
	case recRunResumed:
		s.life = true
		m := ResumeMarker{Recorded: int(d.Uvarint()), Verified: int(d.Uvarint()), Reexecuted: int(d.Uvarint())}
		if d.Err() == nil {
			f.resumes = append(f.resumes, m)
		}
	case recRunEnd:
		m := RunEndMarker{Status: statusName(d.Byte()), Failed: int(d.Uvarint())}
		if d.Err() == nil {
			f.ends = append(f.ends, m)
		}
	case recTaskStarted:
		s.id, ok = taskID(d.Uvarint())
		d.Uvarint() // the attempt number
		t.attempts = 1
	case recTaskCompleted, recTaskMemoized:
		// A memoized task is a completion for resume too: its products
		// are on the drive and it must not be re-invoked.
		var bytes int64
		s.id, bytes, ok = decodeTaskCompleted(r.Data)
		t.completed, t.memoized = true, r.Kind == recTaskMemoized
		if ok && t.memoized {
			f.memoBytes += bytes
		}
	case recTaskFailed:
		s.id, ok = taskID(d.Uvarint())
		s.skipped = d.Byte()&1 != 0
		d.Field() // the error message
		t.failed = true
	}
	if s.bad = !ok || d.Err() != nil; s.bad || t == (taskFold{}) {
		return s
	}
	s.task = true
	if s.skipped {
		f.skipped++
	}
	if f.tasks == nil {
		f.tasks = make(map[int32]taskFold)
	}
	old := f.tasks[s.id]
	t.attempts += old.attempts
	t.completed, t.memoized, t.failed = t.completed || old.completed, t.memoized || old.memoized, t.failed || old.failed
	f.tasks[s.id] = t
	return s
}

// recoverRun is resume's reading of the journal: the records' fold, a
// header that matches the workflow being resumed, and the completed set
// (with prior attempt counts) less the tasks whose declared outputs are
// gone from the shared drive — those re-run. The fingerprint covers each
// task's output names and sizes, so the plan's outputs are the ones the
// completion records name.
func (m *Manager) recoverRun(c *Compiled, recs []journal.Record, torn bool) (*recovery, error) {
	f, n := foldRecords(recs), c.Len()
	h := f.header
	switch {
	case f.headerErr != nil:
		return nil, f.headerErr
	case h == nil:
		return nil, errors.New("wfm: journal has records but no run header; not a wfm journal")
	case h.Fingerprint != c.fingerprint():
		return nil, fmt.Errorf("wfm: journal fingerprint %s does not match workflow %s (%s); refusing to resume",
			h.Fingerprint, c.w.Name, c.fingerprint())
	case h.TaskCount != n:
		return nil, fmt.Errorf("wfm: journal task count %d does not match workflow (%d)", h.TaskCount, n)
	}
	rec := &recovery{header: h, doneSet: make([]bool, n), attempts: make([]int32, n)}
	rec.report.Torn = torn
	for id, t := range f.tasks {
		if int(id) >= n {
			continue // no task of this workflow
		}
		rec.attempts[id] = int32(t.attempts)
		rec.report.PriorAttempts += t.attempts
		rec.doneSet[id] = t.completed
	}
	for id, task := range c.plan.tasks {
		if !rec.doneSet[id] {
			continue
		}
		rec.report.RecordedCompleted++
		for _, out := range task.Files {
			if out.Link == wfformat.LinkOutput && !m.opts.Drive.Exists(out.Name) {
				rec.doneSet[id] = false // its products vanished: it re-runs
				break
			}
		}
		if rec.doneSet[id] {
			rec.doneIDs = append(rec.doneIDs, int32(id))
			rec.report.SkippedInvocations++
		} else {
			rec.report.Reexecuted++
		}
	}
	return rec, nil
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

// SummarizeJournal folds a run's journal records, torn at the end or
// not, into an analysis summary of the manager's record taxonomy.
// Tolerant of foreign records.
func SummarizeJournal(records []journal.Record, torn bool) *JournalSummary {
	f := foldRecords(records)
	s := &JournalSummary{
		EventCounts:      make(map[string]int),
		Attempts:         make(map[int32]int),
		CompletedIDs:     make([]int32, 0, len(f.tasks)),
		SkippedTasks:     f.skipped,
		MemoSkippedBytes: f.memoBytes,
		Resumes:          f.resumes,
		Ends:             f.ends,
		Torn:             torn,
	}
	if h := f.header; h != nil {
		s.Header = &runHeaderView{
			Workflow:    h.Workflow,
			Fingerprint: h.Fingerprint.String(),
			Scheduling:  h.Scheduling.String(),
			TaskCount:   h.TaskCount,
			OptionsHash: h.OptionsHash,
			StartedUnix: h.StartedUnix,
		}
	}
	for k, n := range f.counts {
		if n > 0 {
			s.EventCounts[kindName(uint8(k))] = n
		}
	}
	for id, t := range f.tasks {
		if t.attempts > 0 {
			s.Attempts[id] = t.attempts
		}
		if t.completed {
			s.CompletedIDs = append(s.CompletedIDs, id)
		}
		if t.failed {
			s.FailedTasks++
		}
		if t.memoized {
			s.MemoizedTasks++
			if t.attempts > 0 {
				s.MemoReexecuted++
			}
		}
	}
	slices.Sort(s.CompletedIDs)
	s.CompletedTasks = len(s.CompletedIDs)
	return s
}

// MaxAttemptTasks returns the task IDs with the highest recorded attempt
// count, sorted, plus that count — the "which task kept crashing us"
// question.
func (s *JournalSummary) MaxAttemptTasks() ([]int32, int) {
	max, ids := 0, []int32(nil)
	for id, n := range s.Attempts {
		switch {
		case n > max:
			max, ids = n, append(ids[:0], id)
		case n == max && n > 0:
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids, max
}
