package memo

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wfserverless/internal/journal"
)

// frame is one record as the cache file holds it: a journal envelope.
func frame(fp [32]byte, outs []Output) []byte {
	return journal.AppendRecord(nil, kindEntry, appendEntry(nil, fp, outs))
}

// intact reports whether data holds, at any offset, a journal envelope
// whose CRC checks and whose entry is fp -> outs.
func intact(data []byte, fp [32]byte, outs []Output) bool {
	for i := range data {
		rec, _, ok := journal.NextRecord(data[i:])
		if !ok {
			continue
		}
		if got, gotOuts, ok := decodeEntry(rec); ok && got == fp && reflect.DeepEqual(gotOuts, outs) {
			return true
		}
	}
	return false
}

// FuzzMemoOpen opens arbitrary cache-file bytes: a genuine file of n
// entries cut at cut, with tail appended. Open must never fail on the
// content; every hit must be a record that sits intact in the file;
// every genuine entry that survived the cut whole must hit; and
// reopening the repaired file must drop nothing more.
func FuzzMemoOpen(f *testing.F) {
	f.Add(uint8(3), uint16(0xffff), []byte{})
	f.Add(uint8(3), uint16(100), []byte("torn"))
	f.Add(uint8(0), uint16(4), []byte("WFMEMO1\n"))
	f.Add(uint8(2), uint16(0xffff), frame(testFP(9), testOuts(9)))
	f.Add(uint8(1), uint16(0), []byte("not a memo cache"))
	f.Fuzz(func(t *testing.T, n uint8, cut uint16, tail []byte) {
		path := filepath.Join(t.TempDir(), "memo.cache")
		c, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		entries := int(n % 6)
		for i := 0; i < entries; i++ {
			c.Put(testFP(i), testOuts(i))
		}
		c.Close()
		genuine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data := append(genuine[:min(int(cut), len(genuine)):min(int(cut), len(genuine))], tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		c, err = Open(path)
		if err != nil {
			t.Fatalf("Open failed on the file's content: %v", err)
		}
		c.mu.RLock() // Open's fill holds mu until the index is whole
		index := c.index
		c.mu.RUnlock()
		for fp, outs := range index {
			if !intact(data, fp, outs) {
				t.Fatalf("hit %x is no record written intact", fp[:4])
			}
		}
		head := len(genuine) // the segment magic: the file less its records
		for i := 0; i < entries; i++ {
			head -= len(frame(testFP(i), testOuts(i)))
		}
		off := head
		for i := 0; i < entries && int(cut) >= head; i++ {
			if off += len(frame(testFP(i), testOuts(i))); off > int(cut) {
				break
			}
			if _, ok := c.Lookup(testFP(i)); !ok {
				t.Fatalf("entry %d survived the cut whole but does not hit", i)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if dropped, repaired := re.Recovered(); repaired {
			t.Fatalf("reopening the repaired file dropped %d more bytes", dropped)
		}
		re.mu.RLock()
		reindex := re.index
		re.mu.RUnlock()
		if !reflect.DeepEqual(reindex, index) {
			t.Fatalf("reopened index has %d entries, want %d", len(reindex), len(index))
		}
	})
}
