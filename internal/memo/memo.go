// Package memo implements the durable content-addressed result cache
// behind the manager's incremental re-execution mode: a mapping from
// task fingerprint (wfformat.TaskFingerprints) to the output-file
// manifest the task produced, persisted as one journal segment
// (internal/journal) of entry records beside the run journal and indexed
// in memory for O(1) lookups on the probe path.
//
// Durability model: appends are buffered and flushed on Sync/Close, so
// a crash can lose the most recent entries — never corrupt older ones.
// That is the right trade for a cache: the journal (internal/journal)
// is the intra-run durability story; the memo file only has to be
// trustworthy, not complete. On Open, any corruption — bad magic, a
// torn tail, a CRC mismatch, an undecodable payload — demotes the file
// to the last provably-good prefix (worst case: a cold cache). A
// corrupt file can therefore cost re-execution but never produce a
// wrong hit.
package memo

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"

	"wfserverless/internal/journal"
)

// kindEntry is a memo file's one record kind, a fingerprint and its
// output manifest; no other log uses it (wfm's kinds are 1–7, wfmd's 8
// and 9). A record of any other kind is foreign and ends the file.
const kindEntry uint8 = 10

// Output is one recorded output product of a memoized task: the name
// and size the task declared, and the content address the shared drive
// reported after the task published it.
type Output struct {
	Name string
	Size int64
	// Hash is the sharedfs content address; zero means the producing
	// run's drive could not report one, and verification degrades to an
	// existence check.
	Hash uint64
}

// Cache is a durable fingerprint → output-manifest map. All methods
// are safe for concurrent use. No entry is an allocation of its own: a
// manifest is a capped view of one slab of Outputs, and the names Open
// loaded are substrings of one string.
type Cache struct {
	mu      sync.RWMutex
	f       *os.File
	w       *bufio.Writer
	index   map[[32]byte][]Output // views of outs
	outs    []Output              // the slab's last chunk
	scratch []byte
	failed  error // first append/flush error, sticky
	closed  bool

	recovered    bool
	droppedBytes int64
}

// Open loads (or creates) the cache file at path. Corrupt or foreign
// content never fails Open: the file is truncated back to its longest
// valid prefix — an unrecognizable file, an old WFMEMO1 one included,
// becomes a cold cache — and the repair is reported by Recovered. The
// index fills on a goroutine of its own; the first call waits for it.
func Open(path string) (*Cache, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("memo: %w", err)
	}
	// The first pass finds the valid prefix and counts what it holds,
	// the second fills an index, a slab and a name arena of that size.
	var records, outputs, nameBytes int
	end := journal.Scan(data, func(rec journal.Record) bool {
		_, n, ok := walkEntry(rec, func(name []byte, _, _ uint64) { nameBytes += len(name) })
		if ok {
			records, outputs = records+1, outputs+n
		}
		return ok
	})
	f, _, err := journal.OpenSegment(path, int64(end))
	if err != nil {
		return nil, fmt.Errorf("memo: %w", err)
	}
	c := &Cache{f: f, w: bufio.NewWriterSize(f, 64<<10)}
	if end < len(data) {
		c.recovered, c.droppedBytes = true, int64(len(data)-end)
	}
	// The second pass runs beside the caller holding mu, which every method takes.
	c.mu.Lock()
	go func() {
		defer c.mu.Unlock()
		c.index, c.outs = make(map[[32]byte][]Output, records), make([]Output, 0, outputs)
		var names strings.Builder
		names.Grow(nameBytes) // never grows again: the names already taken stay where they are
		journal.Scan(data[:end], func(rec journal.Record) bool {
			fp, n, _ := walkEntry(rec, func(name []byte, size, hash uint64) {
				names.Write(name)
				all := names.String()
				c.outs = append(c.outs, Output{Name: all[len(all)-len(name):], Size: int64(size), Hash: hash})
			})
			c.index[fp] = c.outs[len(c.outs)-n : len(c.outs) : len(c.outs)] // duplicates: last record wins
			return true
		})
	}()
	return c, nil
}

// walkEntry calls out with each output of an entry record (the name
// aliases rec); it returns the fingerprint, the outputs' count and
// whether rec is one whole entry.
func walkEntry(rec journal.Record, out func(name []byte, size, hash uint64)) (fp [32]byte, n int, ok bool) {
	c := journal.NewCursor(rec.Data)
	copy(fp[:], c.Bytes(len(fp)))
	cnt := c.Uvarint()
	if rec.Kind != kindEntry || c.Err() != nil || cnt > uint64(len(c.Rest())) {
		return fp, 0, false
	}
	for i := uint64(0); i < cnt; i++ {
		name := c.Field()
		size := c.Uvarint()
		out(name, size, c.Uvarint())
	}
	return fp, int(cnt), c.Err() == nil && len(c.Rest()) == 0
}

func appendEntry(b []byte, fp [32]byte, outs []Output) []byte {
	b = append(b, fp[:]...)
	b = binary.AppendUvarint(b, uint64(len(outs)))
	for _, o := range outs {
		b = journal.AppendField(b, o.Name)
		b = binary.AppendUvarint(b, uint64(o.Size))
		b = binary.AppendUvarint(b, o.Hash)
	}
	return b
}

// Lookup returns the output manifest recorded for fp. The returned
// slice is shared and must not be mutated.
func (c *Cache) Lookup(fp [32]byte) ([]Output, bool) {
	c.mu.RLock()
	outs, ok := c.index[fp]
	c.mu.RUnlock()
	return outs, ok
}

// LookupBlock is Lookup of each of fps into outs[i], found[i], under one read lock.
func LookupBlock[H ~[32]byte](c *Cache, fps []H, outs [][]Output, found []bool) {
	c.mu.RLock()
	for i, fp := range fps {
		outs[i], found[i] = c.index[fp]
	}
	c.mu.RUnlock()
}

// Len returns the number of distinct fingerprints cached.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.index)
}

// Put records fp → outs, appending a record to the file (buffered; see
// Sync) unless an identical entry is already cached. Write errors are
// sticky and also reported by Err — a sick disk degrades the cache to
// in-memory, it does not fail the run.
func (c *Cache) Put(fp [32]byte, outs []Output) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.index[fp]; ok && slices.Equal(prev, outs) {
		return c.failed
	}
	// Full, the slab goes on in a new chunk: no copy, and the views stay.
	if cap(c.outs)-len(c.outs) < len(outs) {
		c.outs = make([]Output, 0, max(len(outs), 1024))
	}
	c.outs = append(c.outs, outs...)
	c.index[fp] = c.outs[len(c.outs)-len(outs) : len(c.outs) : len(c.outs)]
	// The envelope goes behind the entry it wraps, in one buffer.
	c.scratch = appendEntry(c.scratch[:0], fp, outs)
	n := len(c.scratch)
	c.scratch = journal.AppendRecord(c.scratch, kindEntry, c.scratch)
	if c.failed == nil {
		if _, err := c.w.Write(c.scratch[n:]); err != nil {
			c.failed = fmt.Errorf("memo: append: %w", err)
		}
	}
	return c.failed
}

// Sync flushes buffered appends through to the file system.
func (c *Cache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncLocked()
}

func (c *Cache) syncLocked() error {
	err := c.w.Flush()
	if err == nil {
		err = c.f.Sync()
	}
	if err != nil && c.failed == nil {
		c.failed = fmt.Errorf("memo: sync: %w", err)
	}
	return c.failed
}

// Close flushes and closes the file. The in-memory index stays usable.
// Closing an already-closed cache is a no-op.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.syncLocked()
	if cerr := c.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("memo: close: %w", cerr)
	}
	return err
}

// Err reports the first append/flush failure, if any.
func (c *Cache) Err() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.failed
}

// Recovered reports whether Open found and repaired corruption, and
// how many bytes of unusable tail (or foreign content) were dropped.
func (c *Cache) Recovered() (dropped int64, repaired bool) {
	return c.droppedBytes, c.recovered
}
