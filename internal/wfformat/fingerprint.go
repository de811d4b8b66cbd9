package wfformat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"strings"
)

// Hash is a workflow content fingerprint.
type Hash [32]byte

// String renders the fingerprint as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether the fingerprint is unset.
func (h Hash) IsZero() bool { return h == Hash{} }

// Fingerprint computes a canonical content hash of the workflow: the
// same logical workflow always hashes the same regardless of task map
// iteration order, slice ordering of parents/children/files/inputs, or
// JSON formatting. It covers the workflow name and, per task, the
// fields that define *what runs and how tasks relate*: type, category,
// cores, runtime, program, the WfBench argument block, the dependency
// edges, and the file set with sizes.
//
// Deployment- and instance-scoped metadata is deliberately excluded —
// api_url (changes per platform deployment), task ID and StartedAt
// (assigned per run), and the workflow's CreatedAt/Description — so a
// journal written against one deployment can be resumed against
// another that serves the same workflow.
func Fingerprint(w *Workflow) Hash {
	_, tasks := w.sortedTasks(true)
	return FingerprintTasks(w.Name, tasks)
}

// FingerprintTasks is Fingerprint of the workflow with that name and
// those tasks, given in name order — the ID-aligned slice Compile
// returns, so a caller that has compiled pays no second sort.
func FingerprintTasks(workflow string, tasks []*Task) Hash {
	d := newDigester()
	d.str(workflow)
	d.num(uint64(len(tasks)))
	for _, t := range tasks {
		d.task(t, true)
	}
	return d.sum()
}

// compareFiles orders files by (link, name) for canonical hashing.
func compareFiles(a, b File) int {
	if c := strings.Compare(a.Link, b.Link); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}

// digester frames every field as length-prefixed bytes so adjacent
// strings can never collide ("ab","c" vs "a","bc"). The framed bytes
// collect in a buffer that is written to the hash a kilobyte at a
// time — a task is some forty fields, most a few bytes long. Lists are
// hashed in canonical order; one that arrives out of order is sorted in
// scratch the digester owns, so hashing a workflow allocates per call,
// not per task: Fingerprint runs on the hot path of every journaled Run.
type digester struct {
	h     hash.Hash
	buf   []byte   // framed bytes not yet written to h
	names []string // sorted copy of one name list, or of a map's keys
	files []File   // sorted copy of one task's files
	out   Hash     // sum's result: a local handed to h.Sum would escape
}

func newDigester() *digester {
	return &digester{h: sha256.New(), buf: make([]byte, 0, 2*spillAt)}
}

const spillAt = 1024

func (d *digester) num(v uint64) { d.buf = binary.AppendUvarint(d.buf, v) }

func (d *digester) f64(v float64) { d.num(math.Float64bits(v)) }

func (d *digester) str(s string) {
	d.num(uint64(len(s)))
	d.buf = append(d.buf, s...)
	d.spill()
}

func (d *digester) hash(h *Hash) {
	d.buf = append(d.buf, h[:]...)
	d.spill()
}

func (d *digester) spill() {
	if len(d.buf) >= spillAt {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

// sum returns the hash of everything digested since the last sum.
func (d *digester) sum() Hash {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	d.h.Sum(d.out[:0])
	d.h.Reset()
	return d.out
}

// sorted hashes a name list in sorted order.
func (d *digester) sorted(s []string) {
	if !slices.IsSorted(s) {
		d.names = append(d.names[:0], s...)
		slices.Sort(d.names)
		s = d.names
	}
	d.num(uint64(len(s)))
	for _, v := range s {
		d.str(v)
	}
}

// canonical returns files in (link, name) order; the result is valid
// until the next call.
func (d *digester) canonical(files []File) []File {
	if slices.IsSortedFunc(files, compareFiles) {
		return files
	}
	d.files = append(d.files[:0], files...)
	slices.SortFunc(d.files, compareFiles)
	return d.files
}

// task digests the fields that define what one task runs, and with
// edges also the names of its parents and children. It returns the
// task's files in canonical order.
func (d *digester) task(t *Task, edges bool) []File {
	d.str(t.Name)
	d.str(t.Type)
	d.str(t.Category)
	d.num(uint64(t.Cores))
	d.f64(t.RuntimeInSeconds)
	d.str(t.Command.Program)
	d.num(uint64(len(t.Command.Arguments)))
	for _, a := range t.Command.Arguments {
		d.str(a.Name)
		d.f64(a.PercentCPU)
		d.f64(a.CPUWork)
		d.num(uint64(a.MemBytes))
		d.str(a.Workdir)
		d.sorted(a.Inputs)
		d.num(uint64(len(a.Out)))
		if len(a.Out) == 1 { // most tasks write one file: no keys to sort
			for k, v := range a.Out {
				d.str(k)
				d.num(uint64(v))
			}
			continue
		}
		d.names = d.names[:0]
		for k := range a.Out {
			d.names = append(d.names, k)
		}
		slices.Sort(d.names)
		for _, k := range d.names {
			d.str(k)
			d.num(uint64(a.Out[k]))
		}
	}
	if edges {
		d.sorted(t.Parents)
		d.sorted(t.Children)
	}
	files := d.canonical(t.Files)
	d.num(uint64(len(files)))
	for _, f := range files {
		d.str(f.Link)
		d.str(f.Name)
		d.num(uint64(f.SizeInBytes))
	}
	return files
}
