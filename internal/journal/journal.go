// Package journal implements a durable, append-only run journal — the
// write-ahead log behind the workflow manager's crash recovery. A
// journal is a directory of segment files, each a sequence of
// length-prefixed, CRC32C-protected records. The format is built for
// orchestrators that die mid-run:
//
//   - Appends are atomic at record granularity: a reader either sees a
//     whole record or stops cleanly at the torn tail a crash left
//     behind. Opening a journal truncates that tail so the writer
//     resumes from the last durable record.
//   - Durability is a policy, not a tax. SyncGroup (the default)
//     acknowledges appends immediately and lets a background group
//     committer batch many records into one fsync — and because the
//     committer detaches the staged buffer before touching the disk,
//     appends never wait out an fsync, so a 100k-task hot path is never
//     serialized on the drive. SyncAlways fsyncs every append;
//     SyncNever leaves flushing to the OS and Close.
//   - Segments rotate at a size threshold and Compact folds everything
//     executed so far into one snapshot record at the head of a fresh
//     segment, deleting the older segments — a journal's size is
//     bounded by live state plus one segment of recent events, not by
//     run length.
//
// The journal stores opaque (kind, payload) records; the workflow
// manager layers its event taxonomy (run header, task started /
// completed / failed, run end) on top. Zero dependencies outside the
// standard library.
package journal

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// KindSnapshot is the reserved record kind Compact writes at the head
// of a fresh segment: an application-encoded summary of every record
// the compaction deleted. Appends may not use it.
const KindSnapshot uint8 = 0

// segMagic opens every segment file; a reader rejects files that were
// never journal segments instead of mis-parsing them.
var segMagic = [8]byte{'w', 'f', 'j', 'r', 'n', 'l', '0', '1'}

// Record envelope on disk, after the segment magic:
//
//	uint32 LE  length   = 1 + len(data), so a zero length is invalid
//	uint32 LE  crc      = CRC32C over the kind byte and data
//	uint8      kind
//	[]byte     data
const recHeaderSize = 9 // 4 length + 4 crc + 1 kind

// maxRecordSize bounds a single record so a corrupt length prefix
// cannot make the reader allocate gigabytes before the CRC rejects it.
const maxRecordSize = 16 << 20

// flushChunk is the staged-bytes threshold past which SyncNever writes
// through to the file (without fsync) so the staging buffer stays
// bounded on long runs.
const flushChunk = 1 << 20

// castagnoli is the CRC32C table (the storage-grade polynomial, SSE4.2
// accelerated by hash/crc32 on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncGroup (default) is group commit: Append returns after the
	// buffered write and a background committer batches everything
	// appended within GroupWindow into a single fsync. A crash can lose
	// at most the records of the last open window — which, for the
	// workflow manager, only means re-running those tasks on resume.
	SyncGroup SyncPolicy = iota
	// SyncAlways fsyncs inside every Append — full durability, one disk
	// round trip per record.
	SyncAlways
	// SyncNever performs no explicit fsync until Sync or Close — the OS
	// page cache decides; survives process death but not machine death.
	SyncNever
)

// String names the policy for flags and reports.
func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps a flag value onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group", "":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want group, always, or never)", s)
}

// Options configures a Journal.
type Options struct {
	// Sync is the fsync policy; the zero value is SyncGroup.
	Sync SyncPolicy
	// GroupWindow is the group-commit batching window; zero defaults to
	// 2ms. Only meaningful with SyncGroup.
	GroupWindow time.Duration
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size; zero defaults to 64 MiB.
	SegmentBytes int64
}

// RegisterFlags registers -journal-sync and -journal-group-ms; o's values
// at the call, zero fields defaulted, are the flags' defaults. Call
// resolve once fs is parsed to set o.Sync and o.GroupWindow from them.
func (o *Options) RegisterFlags(fs *flag.FlagSet) (resolve func() error) {
	d := o.withDefaults()
	policy := fs.String("journal-sync", d.Sync.String(), "journal fsync policy: group (batched), always (per record), never")
	groupMS := fs.Float64("journal-group-ms", float64(d.GroupWindow)/float64(time.Millisecond), "group-commit batching window, wall milliseconds")
	return func() (err error) {
		o.GroupWindow = time.Duration(*groupMS * float64(time.Millisecond))
		o.Sync, err = ParseSyncPolicy(*policy)
		return err
	}
}

func (o Options) withDefaults() Options {
	if o.GroupWindow <= 0 {
		o.GroupWindow = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// Record is one journal entry: an application kind plus opaque payload.
type Record struct {
	Kind uint8
	Data []byte
}

// Stats counts what a Journal has done since Open.
type Stats struct {
	// Appends is the number of records appended (snapshots included).
	Appends int64
	// Syncs is the number of fsyncs issued.
	Syncs int64
	// Bytes is the number of record bytes appended (envelopes included).
	Bytes int64
	// Rotations counts segment rollovers; Compactions counts Compact
	// calls (each also rotates).
	Rotations   int64
	Compactions int64
}

// Journal is an open run journal: the records recovered from disk at
// Open plus an append head. Append, Sync, and Compact are safe for
// concurrent use; Records is immutable after Open.
//
// Two locks split the write path so appenders never wait on the disk:
// mu guards the staging buffer (held for the memcpy of one record);
// fmu guards the file — it is held across write+fsync+rotation and
// serializes committers. Lock order is fmu before mu, never the
// reverse.
type Journal struct {
	dir  string
	opts Options

	recovered []Record
	torn      bool
	tornPath  string
	tornOff   int64

	mu     sync.Mutex
	buf    []byte // append staging buffer
	swap   []byte // recycled buffer handed back by the committer
	closed bool
	err    error // sticky write/sync error

	fmu       sync.Mutex
	f         *os.File
	seq       int   // current segment sequence number
	fileBytes int64 // bytes written to the current segment

	appends     atomic.Int64
	syncs       atomic.Int64
	bytes       atomic.Int64
	rotations   atomic.Int64
	compactions atomic.Int64

	// Group committer: Append nudges wake (capacity 1); the loop batches
	// a GroupWindow of records into one fsync. quit stops the loop.
	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the journal in dir. Existing segments
// are replayed — tolerant of the torn tail an interrupted writer leaves
// — and the recovered records are available via Records; the torn tail,
// if any, is truncated so new appends extend the last intact record.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	rep, err := Read(dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:       dir,
		opts:      opts,
		recovered: rep.Records,
		torn:      rep.Torn,
		tornPath:  rep.TornPath,
		tornOff:   rep.TornOffset,
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if len(rep.Segments) == 0 {
		if err := j.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		last := rep.Segments[len(rep.Segments)-1]
		if rep.Torn && rep.TornPath == last.Path {
			// Cut the torn tail so the next record starts on a clean
			// envelope boundary.
			if err := os.Truncate(last.Path, rep.TornOffset); err != nil {
				return nil, fmt.Errorf("journal: truncating torn tail: %w", err)
			}
			last.Size = rep.TornOffset
		}
		f, err := os.OpenFile(last.Path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		j.f, j.seq, j.fileBytes = f, last.Seq, last.Size
	}
	go j.groupCommitLoop()
	return j, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Records returns the records recovered from disk when the journal was
// opened, in append order. The slice and payloads are owned by the
// Journal; callers must not mutate them.
func (j *Journal) Records() []Record { return j.recovered }

// Torn reports whether Open found (and truncated) a torn or corrupt
// tail — the signature of a writer that died mid-append.
func (j *Journal) Torn() bool { return j.torn }

// Stats returns cumulative counters since Open.
func (j *Journal) Stats() Stats {
	return Stats{
		Appends:     j.appends.Load(),
		Syncs:       j.syncs.Load(),
		Bytes:       j.bytes.Load(),
		Rotations:   j.rotations.Load(),
		Compactions: j.compactions.Load(),
	}
}

// Append writes one record. With SyncGroup it returns as soon as the
// record is staged for the group committer; durability lags by at most
// the group window. kind must not be KindSnapshot (reserved for
// Compact). The data bytes are copied; the caller may reuse them.
func (j *Journal) Append(kind uint8, data []byte) error {
	if kind == KindSnapshot {
		return errors.New("journal: Append: kind 0 is reserved for snapshots")
	}
	return j.append(kind, data)
}

func (j *Journal) append(kind uint8, data []byte) error {
	if len(data)+1 > maxRecordSize {
		return fmt.Errorf("journal: record of %d bytes exceeds max %d", len(data), maxRecordSize)
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return errors.New("journal: closed")
	}
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	j.stageLocked(kind, data)
	staged := len(j.buf)
	j.mu.Unlock()

	switch j.opts.Sync {
	case SyncAlways:
		return j.commit(true)
	case SyncGroup:
		select {
		case j.wake <- struct{}{}:
		default:
		}
	case SyncNever:
		if staged >= flushChunk {
			return j.commit(false)
		}
	}
	return nil
}

// stageLocked appends the record envelope to the staging buffer.
func (j *Journal) stageLocked(kind uint8, data []byte) {
	n := recHeaderSize + len(data)
	// The header is filled in place: a local array would escape through
	// the checksum call, one allocation a record.
	at := len(j.buf)
	j.buf = append(j.buf, make([]byte, recHeaderSize)...)
	hdr := j.buf[at : at+recHeaderSize]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+len(data)))
	hdr[8] = kind
	crc := crc32.Checksum(hdr[8:9], castagnoli)
	crc = crc32.Update(crc, castagnoli, data)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	j.buf = append(j.buf, data...)
	j.appends.Add(1)
	j.bytes.Add(int64(n))
}

// commit flushes everything staged so far to the segment file and, when
// sync is set, fsyncs it. The caller must NOT hold fmu or mu.
func (j *Journal) commit(sync bool) error {
	j.fmu.Lock()
	defer j.fmu.Unlock()
	return j.commitFLocked(sync)
}

// commitFLocked is commit with fmu already held: detach the staged
// buffer under mu (appenders continue into a fresh buffer immediately),
// then perform the file write, fsync, and any due rotation with only
// fmu held — the disk round trip never blocks an Append.
func (j *Journal) commitFLocked(sync bool) error {
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	buf := j.buf
	j.buf = j.swap[:0]
	j.swap = nil
	j.mu.Unlock()

	err := j.writeFLocked(buf, sync)

	j.mu.Lock()
	j.swap = buf[:0] // recycle the detached buffer for the next window
	if err != nil && j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
	return err
}

// writeFLocked performs the file I/O of one commit under fmu.
func (j *Journal) writeFLocked(buf []byte, sync bool) error {
	if len(buf) > 0 {
		if _, err := j.f.Write(buf); err != nil {
			return fmt.Errorf("journal: write: %w", err)
		}
		j.fileBytes += int64(len(buf))
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.syncs.Add(1)
	}
	if j.fileBytes > j.opts.SegmentBytes {
		return j.rotateFLocked(sync)
	}
	return nil
}

// rotateFLocked seals the current segment and opens the next, under
// fmu. The sealed segment is fsynced unless the caller's policy never
// syncs, so rotation cannot silently lose the tail of a sealed file.
func (j *Journal) rotateFLocked(synced bool) error {
	if !synced {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.syncs.Add(1)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	if err := j.openSegment(j.seq + 1); err != nil {
		return err
	}
	j.rotations.Add(1)
	return nil
}

// Sync forces everything appended so far to durable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return errors.New("journal: closed")
	}
	j.mu.Unlock()
	return j.commit(true)
}

// groupCommitLoop is the background committer for SyncGroup: each wake
// waits out the batching window (absorbing every append that lands in
// it), then issues one fsync for the whole batch.
func (j *Journal) groupCommitLoop() {
	defer close(j.done)
	if j.opts.Sync != SyncGroup {
		<-j.quit
		return
	}
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		select {
		case <-j.quit:
			return
		case <-j.wake:
		}
		timer.Reset(j.opts.GroupWindow)
		select {
		case <-j.quit:
			return
		case <-timer.C:
		}
		// Drain any nudge that raced the window so the next append
		// starts a fresh batch.
		select {
		case <-j.wake:
		default:
		}
		j.commit(true) // sticky error is observed by the next Append
	}
}

// segPath names segment seq in dir.
func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%08d.wal", seq))
}

// openSegment creates segment seq, writes the magic, fsyncs the file
// and the directory (so the name survives a crash), and makes it the
// append head. Called from Open (single-threaded) or under fmu.
func (j *Journal) openSegment(seq int) error {
	f, err := os.OpenFile(segPath(j.dir, seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		f.Close()
		return err
	}
	j.f, j.seq, j.fileBytes = f, seq, int64(len(segMagic))
	return nil
}

// Compact folds the journal's history into one snapshot: it seals the
// current segment, starts a fresh one whose first record is the
// snapshot (kind KindSnapshot), fsyncs it, and only then deletes the
// older segments. A crash at any point leaves a readable journal: either
// the old segments still exist (the snapshot record simply restates
// their net effect) or only the new one does.
func (j *Journal) Compact(snapshot []byte) error {
	if len(snapshot)+1 > maxRecordSize {
		return fmt.Errorf("journal: snapshot of %d bytes exceeds max %d", len(snapshot), maxRecordSize)
	}
	j.fmu.Lock()
	defer j.fmu.Unlock()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return errors.New("journal: closed")
	}
	j.mu.Unlock()
	// Seal: everything staged so far becomes durable in the old segment.
	if err := j.commitFLocked(true); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return j.stick(fmt.Errorf("journal: close segment: %w", err))
	}
	old := j.seq
	if err := j.openSegment(j.seq + 1); err != nil {
		return j.stick(err)
	}
	j.mu.Lock()
	// The snapshot must be the new segment's first record: stage it
	// ahead of anything appended since the seal above.
	j.buf = append(j.snapEnvelope(snapshot), j.buf...)
	j.mu.Unlock()
	if err := j.commitFLocked(true); err != nil {
		return err
	}
	// The snapshot is durable; the history it replaces can go.
	for seq := old; seq >= 1; seq-- {
		p := segPath(j.dir, seq)
		if err := os.Remove(p); err != nil {
			if os.IsNotExist(err) {
				break // older segments were already compacted away
			}
			return j.stick(fmt.Errorf("journal: removing %s: %w", p, err))
		}
	}
	if err := syncDir(j.dir); err != nil {
		return j.stick(err)
	}
	j.compactions.Add(1)
	return nil
}

// snapEnvelope renders a snapshot record's on-disk envelope.
func (j *Journal) snapEnvelope(snapshot []byte) []byte {
	b := make([]byte, 0, recHeaderSize+len(snapshot))
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+len(snapshot)))
	hdr[8] = KindSnapshot
	crc := crc32.Checksum(hdr[8:9], castagnoli)
	crc = crc32.Update(crc, castagnoli, snapshot)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	b = append(b, hdr[:]...)
	b = append(b, snapshot...)
	j.appends.Add(1)
	j.bytes.Add(int64(len(b)))
	return b
}

// stick records err as the journal's sticky error and returns it.
func (j *Journal) stick(err error) error {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
	return err
}

// Close flushes and fsyncs outstanding records, stops the group
// committer, and closes the segment file.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	// Stop the committer first so the final commit below cannot race a
	// window firing mid-close.
	close(j.quit)
	<-j.done
	err := j.commit(true)
	j.fmu.Lock()
	cerr := j.f.Close()
	j.fmu.Unlock()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("journal: close: %w", cerr)
	}
	return nil
}

// Abort closes the journal as a crash would: staged records that were
// never flushed are dropped on the floor, nothing is fsynced, and the
// group committer is stopped. Crash-injection harnesses use it to model
// process death without os.Exit; real code should use Close.
func (j *Journal) Abort() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed = true
	j.buf = nil // unflushed records die with the process
	j.mu.Unlock()
	close(j.quit)
	<-j.done
	j.fmu.Lock()
	j.f.Close()
	j.fmu.Unlock()
}

// syncDir fsyncs a directory so renames/creates/removes inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	if cerr != nil {
		return fmt.Errorf("journal: %w", cerr)
	}
	return nil
}

// SegmentInfo describes one segment file found by Read.
type SegmentInfo struct {
	Path string
	Seq  int
	Size int64
}

// Replay is the result of reading a journal from disk.
type Replay struct {
	// Records are every intact record, in append order across segments.
	Records []Record
	// Torn reports that reading stopped at a torn or corrupt record; the
	// records before it were all recovered. TornPath and TornOffset
	// locate the first bad byte.
	Torn       bool
	TornPath   string
	TornOffset int64
	// Segments lists the segment files read, in sequence order.
	Segments []SegmentInfo
}

// Read replays the journal at path, which may be a journal directory or
// a single segment file. The reader is tolerant of the damage a crash
// can leave — a truncated tail, a half-written record, flipped bits —
// and never panics: it returns every record up to the first corruption
// and reports where it stopped. I/O failures (as opposed to corrupt
// contents) are returned as errors.
func Read(path string) (*Replay, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	rep := &Replay{}
	if !fi.IsDir() {
		rep.Segments = []SegmentInfo{{Path: path, Size: fi.Size()}}
		return rep, readSegment(path, rep)
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "journal-%d.wal", &seq); err != nil || seq < 1 {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		rep.Segments = append(rep.Segments, SegmentInfo{
			Path: filepath.Join(path, e.Name()), Seq: seq, Size: info.Size(),
		})
	}
	sort.Slice(rep.Segments, func(i, k int) bool { return rep.Segments[i].Seq < rep.Segments[k].Seq })
	for _, seg := range rep.Segments {
		if err := readSegment(seg.Path, rep); err != nil {
			return nil, err
		}
		if rep.Torn {
			// Records past a corruption point are unanchored — a later
			// segment may postdate a snapshot we can no longer trust.
			break
		}
	}
	return rep, nil
}

// readSegment appends one segment's intact records to rep, marking rep
// torn at the first bad byte.
func readSegment(path string, rep *Replay) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	torn := func(off int) {
		rep.Torn = true
		rep.TornPath = path
		rep.TornOffset = int64(off)
	}
	if len(data) < len(segMagic) || [8]byte(data[:8]) != segMagic {
		torn(0)
		return nil
	}
	off := len(segMagic)
	for off < len(data) {
		if len(data)-off < recHeaderSize {
			torn(off)
			return nil
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length == 0 || length > maxRecordSize {
			torn(off)
			return nil
		}
		end := off + 8 + int(length)
		if end > len(data) {
			torn(off)
			return nil
		}
		body := data[off+8 : end]
		if crc32.Checksum(body, castagnoli) != crc {
			torn(off)
			return nil
		}
		rec := Record{Kind: body[0]}
		if len(body) > 1 {
			rec.Data = append([]byte(nil), body[1:]...)
		}
		rep.Records = append(rep.Records, rec)
		off = end
	}
	return nil
}

// Snapshot returns the index just past the last snapshot record in
// records, plus whether one exists: replay state = decode records[i-1]'s
// snapshot, then apply records[i:]. A journal that was never compacted
// returns (0, false): apply everything.
func Snapshot(records []Record) (int, bool) {
	for i := len(records) - 1; i >= 0; i-- {
		if records[i].Kind == KindSnapshot {
			return i + 1, true
		}
	}
	return 0, false
}

// ErrNoJournal reports a resume attempt against a journal with no
// records at all.
var ErrNoJournal = errors.New("journal: no records")
