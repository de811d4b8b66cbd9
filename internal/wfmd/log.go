// The service log: one write-ahead log per daemon life, under
// <DataDir>/log/<life>/, holding every run's submission, its wfm
// journal records and its terminal result. A run owns no file of its
// own; restart rebuilds the registry by folding the earlier lives' logs.
package wfmd

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"wfserverless/internal/journal"
)

// Service log record kinds, above wfm's 1–7. Every payload in the log,
// wfm's included, starts with its run's sequence number as a uvarint.
const (
	// kindSubmit carries uvarint len(meta), the RunMeta JSON, uvarint
	// len(workflow), then the workflow bytes as posted. A workflow past
	// submitChunk continues in kindSubmit records with an empty meta.
	kindSubmit uint8 = 8
	// kindEnd carries the RunResult JSON: the run is terminal.
	kindEnd uint8 = 9
)

const (
	// submitChunk is the most workflow one record carries, well under
	// the journal's 16 MiB record limit.
	submitChunk = 8 << 20
	// seqLimit bounds the sequence numbers a log is trusted with.
	seqLimit = 1 << 40
	// maxPresizeBytes is the largest Content-Length trusted to size a
	// read buffer, and the largest buffer bufs keeps.
	maxPresizeBytes = 4 << 20
)

// bufs recycles submission buffers, the request body's and the submit
// record's. Parse aliases nothing and the log copies what it appends,
// so a buffer is free again once Submit returns.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPresizeBytes {
		bufs.Put(bp)
	}
}

func runID(seq int) string { return fmt.Sprintf("r-%06d", seq) }

// tagged returns payload behind seq's tag.
func tagged(seq int, payload []byte) []byte {
	b := make([]byte, 0, binary.MaxVarintLen64+len(payload))
	return append(binary.AppendUvarint(b, uint64(seq)), payload...)
}

// RunRecord is one run as a data dir's log holds it.
type RunRecord struct {
	Meta RunMeta
	// Result is the terminal record; nil while the run is incomplete.
	Result *RunResult
	// Workflow is the submitted body, verbatim. Records are the run's
	// wfm journal records, tag stripped, for wfm.SummarizeJournal; Torn
	// reports that a log segment holding them ended torn.
	Workflow []byte
	Records  []journal.Record
	Torn     bool

	seq, size int // size: the workflow's declared length
}

// fold rebuilds runs from service log records, by sequence number.
type fold struct {
	runs   map[int]*RunRecord
	keep   bool // keep a terminal run's workflow and records
	maxSeq int
}

func (f *fold) submit(seq int, meta RunMeta, workflow []byte, size int) *RunRecord {
	meta.ID = runID(seq)
	r := &RunRecord{Meta: meta, Workflow: workflow, seq: seq, size: size}
	f.runs[seq] = r
	f.maxSeq = max(f.maxSeq, seq)
	return r
}

// apply folds one record and returns the run it belongs to, nil if none.
func (f *fold) apply(rec journal.Record) *RunRecord {
	seq, n := binary.Uvarint(rec.Data)
	if n <= 0 || seq == 0 || seq > seqLimit {
		return nil
	}
	data, r := rec.Data[n:], f.runs[int(seq)]
	switch {
	case rec.Kind == kindSubmit:
		meta, rest, ok := cut(data)
		switch {
		case !ok:
			return nil
		case r == nil && len(meta) > 0:
			size, k := binary.Uvarint(rest)
			var m RunMeta
			if k <= 0 || size > maxWorkflowBytes || json.Unmarshal(meta, &m) != nil {
				return nil
			}
			r = f.submit(int(seq), m, rest[k:], int(size))
		case r != nil && len(meta) == 0 && len(r.Workflow) < r.size:
			r.Workflow = append(r.Workflow, rest...)
		}
	case r == nil || r.Result != nil:
		return nil
	case rec.Kind == kindEnd:
		var rr RunResult
		if json.Unmarshal(data, &rr) != nil {
			return nil
		}
		r.Result = &rr
		if !f.keep {
			r.Workflow, r.Records = nil, nil
		}
	default:
		r.Records = append(r.Records, journal.Record{Kind: rec.Kind, Data: data})
	}
	return r
}

// cut splits a uvarint-length-prefixed field off data.
func cut(data []byte) (field, rest []byte, ok bool) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return nil, nil, false
	}
	return data[k : k+int(n)], data[k+int(n):], true
}

// sorted returns the folded runs in sequence order, less any whose
// workflow the log holds only part of: that run was never answered 202.
func (f *fold) sorted() []*RunRecord {
	out := make([]*RunRecord, 0, len(f.runs))
	for _, r := range f.runs {
		if r.Result != nil || len(r.Workflow) == r.size {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b *RunRecord) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// foldLog folds every life's log under dataDir/log, one segment file at
// a time, so startup holds one segment plus the live runs. It returns
// the last life's number.
func foldLog(dataDir string, f *fold) (int, error) {
	root := filepath.Join(dataDir, "log")
	lives, err := os.ReadDir(root) // zero-padded names: in the lives' order
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	last := 0
	for _, life := range lives {
		n, err := strconv.Atoi(life.Name())
		if err != nil || !life.IsDir() {
			continue
		}
		last = max(last, n)
		dir := filepath.Join(root, life.Name())
		segs, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		for _, seg := range segs {
			if !strings.HasSuffix(seg.Name(), ".wal") {
				continue
			}
			rep, err := journal.Read(filepath.Join(dir, seg.Name()))
			if err != nil {
				return 0, err
			}
			for _, rec := range rep.Records {
				if r := f.apply(rec); r != nil && rep.Torn {
					r.Torn = true
				}
			}
			if rep.Torn {
				break // the rest of this life's log is past its crash point
			}
		}
	}
	return last, nil
}

// ReadDataDir replays the service log of the wfmd data dir at path and
// returns every run it holds, terminal ones included, in sequence order.
func ReadDataDir(path string) ([]*RunRecord, error) {
	if RunsRoot(path) == "" {
		return nil, fmt.Errorf("wfmd: %s holds no service log", path)
	}
	f := &fold{runs: make(map[int]*RunRecord), keep: true}
	if _, err := foldLog(path, f); err != nil {
		return nil, err
	}
	return f.sorted(), nil
}

// RunsRoot returns path when it is a wfmd data dir, one holding the
// service log ReadDataDir reads, and "" otherwise.
func RunsRoot(path string) string {
	if fi, err := os.Stat(filepath.Join(path, "log")); err == nil && fi.IsDir() {
		return path
	}
	return ""
}

// runLog is one run's view of the service log, its wfm.Journal: appends
// carry the run's tag, and Records are what earlier lives logged for it.
type runLog struct {
	wal  *journal.Journal
	seq  uint64
	buf  []byte // tag + payload; wfm appends one record at a time
	recs []journal.Record
	torn bool
}

func (v *runLog) Append(kind uint8, data []byte) error {
	v.buf = append(binary.AppendUvarint(v.buf[:0], v.seq), data...)
	return v.wal.Append(kind, v.buf)
}

func (v *runLog) Sync() error               { return v.wal.Sync() }
func (v *runLog) Records() []journal.Record { return v.recs }
func (v *runLog) Torn() bool                { return v.torn }

// logSubmit appends a run's submission and syncs it: a run is durable
// before its 202.
func (s *Server) logSubmit(seq int, meta RunMeta, body []byte) error {
	m, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	bp := bufs.Get().(*[]byte)
	defer putBuf(bp)
	b := binary.AppendUvarint((*bp)[:0], uint64(seq))
	b = binary.AppendUvarint(append(binary.AppendUvarint(b, uint64(len(m))), m...), uint64(len(body)))
	for {
		n := min(len(body), submitChunk)
		b = append(b, body[:n]...)
		if err := s.wal.Append(kindSubmit, b); err != nil {
			return err
		}
		if body = body[n:]; len(body) == 0 {
			break
		}
		b = append(binary.AppendUvarint(b[:0], uint64(seq)), 0) // a continuation: empty meta
	}
	*bp = b
	return s.wal.Sync()
}

// migrate folds a data dir the per-run-directory wfmd wrote, runs/<id>/
// holding meta.json, workflow.json, journal/ and, once terminal,
// result.json, into the log, then renames runs/ to runs.pre-log/. A run
// already in the log is skipped, so a crash between the fold and the
// rename duplicates nothing.
func (s *Server) migrate(f *fold) error {
	old := filepath.Join(s.cfg.DataDir, "runs")
	dirs, err := os.ReadDir(old)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, d := range dirs {
		dir := filepath.Join(old, d.Name())
		var meta RunMeta
		data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
		if err == nil {
			err = json.Unmarshal(data, &meta)
		}
		body, berr := os.ReadFile(filepath.Join(dir, "workflow.json"))
		seq, ok := parseRunID(meta.ID)
		if err = errors.Join(err, berr); err != nil || !ok || seq == 0 || seq > seqLimit {
			s.log.Warn("skipping unreadable run dir", "dir", dir, "err", err)
			continue
		}
		if f.runs[seq] != nil {
			continue
		}
		if err := s.logSubmit(seq, meta, body); err != nil {
			return err
		}
		f.submit(seq, meta, body, len(body))
		add := func(kind uint8, payload []byte) error {
			rec := journal.Record{Kind: kind, Data: tagged(seq, payload)}
			f.apply(rec)
			return s.wal.Append(rec.Kind, rec.Data)
		}
		if rep, err := journal.Read(filepath.Join(dir, "journal")); err == nil {
			for _, rec := range rep.Records {
				if rec.Kind == journal.KindSnapshot {
					continue
				}
				if err := add(rec.Kind, rec.Data); err != nil {
					return err
				}
			}
			f.runs[seq].Torn = rep.Torn
		}
		if data, err := os.ReadFile(filepath.Join(dir, "result.json")); err == nil {
			if err := add(kindEnd, data); err != nil {
				return err
			}
		}
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	return os.Rename(old, old+".pre-log")
}
