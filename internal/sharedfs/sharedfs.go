// Package sharedfs implements the shared drive the paper's framework
// assumes: "all machines in the cluster have access to a common shared
// directory for storing I/O", so every function can write to and read
// from the same place and inter-function communication is guaranteed.
//
// Two backends are provided. MemDrive keeps only file metadata (name and
// size) in memory and is used by the experiment harness, where thousands
// of sized files are produced. DiskDrive writes real files under a
// directory and is used by the standalone WfBench service and the
// integration tests, matching the paper's NFS mount.
package sharedfs

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Drive is the shared storage every workflow function reads inputs from
// and writes outputs to.
type Drive interface {
	// WriteFile creates (or replaces) a file of the given size.
	WriteFile(name string, size int64) error
	// Stat returns the size of name, or an error satisfying
	// errors.Is(err, fs.ErrNotExist) if absent.
	Stat(name string) (int64, error)
	// Exists reports whether name is present.
	Exists(name string) bool
	// List returns all file names, sorted.
	List() []string
	// Remove deletes name if present; removing an absent file is not an
	// error, mirroring idempotent cleanup.
	Remove(name string) error
	// TotalBytes returns the sum of all file sizes.
	TotalBytes() int64
}

// ErrNotExist is returned (wrapped) when a file is absent.
var ErrNotExist = fs.ErrNotExist

// Hasher is an optional Drive extension for content-addressed drives:
// ContentHash reports a file's content address without re-reading its
// bytes. Both bundled drives qualify — their file contents are a pure
// function of (name, size): MemDrive stores only metadata and DiskDrive
// lays down a deterministic repeating pattern — so the address derives
// from a single metadata lookup. The batch invocation path uses this to
// verify a whole batch's inputs with one hash per unique file instead
// of re-checking (or re-reading) them per sub-task.
type Hasher interface {
	// ContentHash returns the file's content address and true, or false
	// if the file is absent.
	ContentHash(name string) (uint64, bool)
	// ContentHashes is ContentHash of each name into present[i] and, where
	// that is true, hashes[i]; under one lock if the drive takes one.
	ContentHashes(names []string, hashes []uint64, present []bool)
}

// contentHash derives the content address of a pattern file from its
// metadata (FNV-1a over the name bytes then the size).
func contentHash(name string, size int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(size>>(8*i)) & 0xff
		h *= prime64
	}
	return h
}

// ContentAddress returns the content address a bundled drive reports
// for a pattern file of the given name and declared size, without the
// file having to exist anywhere. It is the same value ContentHash
// returns once the file is staged, which is what makes fingerprints
// computed before staging agree with fingerprints computed after: the
// memoization layer addresses a workflow's external inputs through
// this function whenever the drive cannot answer (file not yet
// staged), and through ContentHash when it can (file present, possibly
// with a size diverging from the declaration — which must, and does,
// change the address).
func ContentAddress(name string, size int64) uint64 {
	return contentHash(name, size)
}

// Watcher is an optional Drive extension: drives that can push change
// notifications let WaitFor wake the instant a file is published instead
// of burning a poll loop. MemDrive implements it; DiskDrive deliberately
// does not (a real NFS mount or remote store has no portable push
// channel), so WaitFor falls back to bounded polling for it.
type Watcher interface {
	// Watch returns a channel that is closed once name exists on the
	// drive. If name already exists the returned channel is closed
	// immediately. cancel releases the watch; it is safe to call after
	// the channel fired.
	Watch(name string) (done <-chan struct{}, cancel func())
}

// MemDrive is an in-memory Drive safe for concurrent use.
type MemDrive struct {
	mu    sync.RWMutex
	files map[string]int64
	// watchers holds one-shot publication subscriptions per file name,
	// keyed by a unique id so cancellation is O(1).
	watchers    map[string]map[uint64]chan struct{}
	nextWatchID uint64
}

// NewMem returns an empty in-memory drive.
func NewMem() *MemDrive {
	return &MemDrive{files: make(map[string]int64)}
}

// WriteFile implements Drive and wakes any watchers of name.
func (d *MemDrive) WriteFile(name string, size int64) error {
	if err := checkName(name); err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("sharedfs: negative size %d for %q", size, name)
	}
	d.mu.Lock()
	d.files[name] = size
	fired := d.watchers[name]
	delete(d.watchers, name)
	d.mu.Unlock()
	for _, ch := range fired {
		close(ch)
	}
	return nil
}

// closedChan is returned by Watch for files that already exist.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Watch implements Watcher. The existence check and the subscription
// are atomic with respect to WriteFile, so a concurrent write can never
// be missed.
func (d *MemDrive) Watch(name string) (<-chan struct{}, func()) {
	d.mu.Lock()
	if _, ok := d.files[name]; ok {
		d.mu.Unlock()
		return closedChan, func() {}
	}
	if d.watchers == nil {
		d.watchers = make(map[string]map[uint64]chan struct{})
	}
	id := d.nextWatchID
	d.nextWatchID++
	ch := make(chan struct{})
	if d.watchers[name] == nil {
		d.watchers[name] = make(map[uint64]chan struct{})
	}
	d.watchers[name][id] = ch
	d.mu.Unlock()
	cancel := func() {
		d.mu.Lock()
		if m, ok := d.watchers[name]; ok {
			delete(m, id)
			if len(m) == 0 {
				delete(d.watchers, name)
			}
		}
		d.mu.Unlock()
	}
	return ch, cancel
}

// ContentHash implements Hasher from the in-memory metadata alone.
func (d *MemDrive) ContentHash(name string) (uint64, bool) {
	d.mu.RLock()
	size, ok := d.files[name]
	d.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return contentHash(name, size), true
}

// ContentHashes implements Hasher under one read lock.
func (d *MemDrive) ContentHashes(names []string, hashes []uint64, present []bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, name := range names {
		var size int64
		if size, present[i] = d.files[name]; present[i] {
			hashes[i] = contentHash(name, size)
		}
	}
}

// Stat implements Drive.
func (d *MemDrive) Stat(name string) (int64, error) {
	d.mu.RLock()
	size, ok := d.files[name]
	d.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("sharedfs: %q: %w", name, ErrNotExist)
	}
	return size, nil
}

// Exists implements Drive.
func (d *MemDrive) Exists(name string) bool {
	d.mu.RLock()
	_, ok := d.files[name]
	d.mu.RUnlock()
	return ok
}

// List implements Drive.
func (d *MemDrive) List() []string {
	d.mu.RLock()
	out := make([]string, 0, len(d.files))
	for n := range d.files {
		out = append(out, n)
	}
	d.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Remove implements Drive.
func (d *MemDrive) Remove(name string) error {
	d.mu.Lock()
	delete(d.files, name)
	d.mu.Unlock()
	return nil
}

// TotalBytes implements Drive.
func (d *MemDrive) TotalBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total int64
	for _, s := range d.files {
		total += s
	}
	return total
}

// DiskDrive stores files under a root directory. File contents are a
// repeating pattern of the requested size, so consumers can verify both
// presence and byte count like the paper's wfbench does.
type DiskDrive struct {
	root string
	mu   sync.Mutex // serializes directory-level operations
}

// NewDisk returns a drive rooted at dir, creating it if needed.
func NewDisk(dir string) (*DiskDrive, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sharedfs: %w", err)
	}
	return &DiskDrive{root: dir}, nil
}

// Root returns the backing directory.
func (d *DiskDrive) Root() string { return d.root }

func (d *DiskDrive) path(name string) (string, error) {
	if err := checkName(name); err != nil {
		return "", err
	}
	return filepath.Join(d.root, name), nil
}

// WriteFile implements Drive. Contents are written in bounded chunks so
// large declared sizes do not allocate proportional memory.
func (d *DiskDrive) WriteFile(name string, size int64) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("sharedfs: negative size %d for %q", size, name)
	}
	f, err := os.Create(p)
	if err != nil {
		return err
	}
	const chunkSize = 64 << 10
	chunk := make([]byte, chunkSize)
	for i := range chunk {
		chunk[i] = byte('a' + i%26)
	}
	remaining := size
	for remaining > 0 {
		n := int64(len(chunk))
		if remaining < n {
			n = remaining
		}
		if _, err := f.Write(chunk[:n]); err != nil {
			f.Close()
			return err
		}
		remaining -= n
	}
	return f.Close()
}

// Stat implements Drive.
func (d *DiskDrive) Stat(name string) (int64, error) {
	p, err := d.path(name)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err // wraps fs.ErrNotExist already
	}
	return fi.Size(), nil
}

// ContentHash implements Hasher. DiskDrive contents are the
// deterministic pattern WriteFile lays down, so the content address
// follows from a stat — no bytes are read.
func (d *DiskDrive) ContentHash(name string) (uint64, bool) {
	size, err := d.Stat(name)
	if err != nil {
		return 0, false
	}
	return contentHash(name, size), true
}

// ContentHashes implements Hasher, a stat per name.
func (d *DiskDrive) ContentHashes(names []string, hashes []uint64, present []bool) {
	for i, name := range names {
		hashes[i], present[i] = d.ContentHash(name)
	}
}

// Exists implements Drive.
func (d *DiskDrive) Exists(name string) bool {
	_, err := d.Stat(name)
	return err == nil
}

// List implements Drive.
func (d *DiskDrive) List() []string {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// Remove implements Drive.
func (d *DiskDrive) Remove(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// TotalBytes implements Drive.
func (d *DiskDrive) TotalBytes() int64 {
	var total int64
	for _, n := range d.List() {
		if s, err := d.Stat(n); err == nil {
			total += s
		}
	}
	return total
}

// checkName rejects names that would escape the drive.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("sharedfs: empty file name")
	}
	if strings.Contains(name, "/") || strings.Contains(name, "\\") || name == "." || name == ".." {
		return fmt.Errorf("sharedfs: invalid file name %q", name)
	}
	return nil
}

// Polling bounds for WaitFor's fallback path: the interval is clamped so
// a mis-scaled caller can neither spin the drive (important for a
// remote store, where every Exists pays a network round trip) nor sleep
// past reasonable reaction time.
const (
	minPoll = time.Millisecond
	maxPoll = 250 * time.Millisecond
)

// WaitFor blocks until every name exists on the drive or ctx is done,
// returning the names still missing when the context expires. This is
// the workflow manager's "check whether the required input files are
// available on the shared drive" step.
//
// When the drive implements Watcher, WaitFor subscribes and wakes the
// instant each file is published — no polling at all. Otherwise it falls
// back to polling with the interval clamped to [1ms, 250ms].
func WaitFor(ctx context.Context, d Drive, names []string, poll time.Duration) (missing []string, err error) {
	// Fast path: in dependency-ordered execution the producing tasks have
	// already finished, so the inputs are almost always present on the
	// first look — skip the subscription/timer machinery entirely.
	if AllExist(d, names) {
		return nil, nil
	}
	if w, ok := d.(Watcher); ok {
		return waitWatch(ctx, w, names)
	}
	if poll < minPoll {
		poll = minPoll
	}
	if poll > maxPoll {
		poll = maxPoll
	}
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for {
		missing = missing[:0]
		for _, n := range names {
			if !d.Exists(n) {
				missing = append(missing, n)
			}
		}
		if len(missing) == 0 {
			return nil, nil
		}
		select {
		case <-ctx.Done():
			sort.Strings(missing)
			return missing, ctx.Err()
		case <-timer.C:
			timer.Reset(poll)
		}
	}
}

// waitWatch is the event-driven WaitFor path: one subscription per name,
// all released on return.
func waitWatch(ctx context.Context, w Watcher, names []string) (missing []string, err error) {
	type watch struct {
		name   string
		done   <-chan struct{}
		cancel func()
	}
	watches := make([]watch, 0, len(names))
	defer func() {
		for _, wa := range watches {
			wa.cancel()
		}
	}()
	for _, n := range names {
		done, cancel := w.Watch(n)
		watches = append(watches, watch{name: n, done: done, cancel: cancel})
	}
	for i, wa := range watches {
		select {
		case <-wa.done:
		case <-ctx.Done():
			// Collect everything not yet published, including names
			// after i that may also still be pending.
			for _, rest := range watches[i:] {
				select {
				case <-rest.done:
				default:
					missing = append(missing, rest.name)
				}
			}
			sort.Strings(missing)
			return missing, ctx.Err()
		}
	}
	return nil, nil
}

// AllExist reports whether every name is already on the drive. It is the
// allocation-free check callers use before paying for a deadline context
// and a WaitFor subscription.
func AllExist(d Drive, names []string) bool {
	for _, n := range names {
		if !d.Exists(n) {
			return false
		}
	}
	return true
}

// Stage writes every listed file onto the drive — used to place a
// workflow's external inputs before execution.
func Stage(d Drive, files map[string]int64) error {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := d.WriteFile(n, files[n]); err != nil {
			return err
		}
	}
	return nil
}
