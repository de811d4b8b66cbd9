package memo

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wfserverless/internal/journal"
)

func testFP(i int) (fp [32]byte) {
	fp[0] = byte(i)
	fp[1] = byte(i >> 8)
	fp[31] = 0xAB
	return fp
}

func testOuts(i int) []Output {
	return []Output{
		{Name: fmt.Sprintf("out_%04d", i), Size: int64(10 + i), Hash: uint64(1000 + i)},
		{Name: fmt.Sprintf("aux_%04d", i), Size: 3, Hash: uint64(2000 + i)},
	}
}

func openTemp(t *testing.T) (*Cache, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "memo.cache")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return c, path
}

func TestRoundTrip(t *testing.T) {
	c, path := openTemp(t)
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.Put(testFP(i), testOuts(i)); err != nil {
			t.Fatal(err)
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
	if re.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), n)
	}
	if _, repaired := re.Recovered(); repaired {
		t.Fatal("clean file reported repaired")
	}
	for i := 0; i < n; i++ {
		outs, ok := re.Lookup(testFP(i))
		if !ok {
			t.Fatalf("entry %d missing after reopen", i)
		}
		want := testOuts(i)
		if len(outs) != len(want) {
			t.Fatalf("entry %d: %d outputs, want %d", i, len(outs), len(want))
		}
		for k := range outs {
			if outs[k] != want[k] {
				t.Fatalf("entry %d output %d = %+v, want %+v", i, k, outs[k], want[k])
			}
		}
	}
}

func TestReopenAppend(t *testing.T) {
	c, path := openTemp(t)
	c.Put(testFP(1), testOuts(1))
	c.Close()
	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c2.Put(testFP(2), testOuts(2))
	c2.Close()
	c3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Len() != 2 {
		t.Fatalf("Len = %d after reopen-append-reopen, want 2", c3.Len())
	}
}

func TestDuplicatePutLastWins(t *testing.T) {
	c, path := openTemp(t)
	c.Put(testFP(1), testOuts(1))
	c.Put(testFP(1), testOuts(7)) // changed manifest, same fingerprint
	c.Put(testFP(1), testOuts(7)) // identical: must not grow the file
	c.Close()
	before, _ := os.Stat(path)
	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c2.Put(testFP(1), testOuts(7))
	c2.Close()
	after, _ := os.Stat(path)
	if after.Size() != before.Size() {
		t.Fatalf("identical re-Put grew file: %d -> %d", before.Size(), after.Size())
	}
	c3, _ := Open(path)
	defer c3.Close()
	outs, ok := c3.Lookup(testFP(1))
	if !ok || outs[0] != testOuts(7)[0] {
		t.Fatalf("last write did not win: %+v", outs)
	}
}

// TestCorruptionNeverWrongHit is the satellite property: for a byte
// flip anywhere in the file, Open succeeds and every surviving entry
// is exactly what was written — corruption costs entries, never
// corrupts them.
func TestCorruptionNeverWrongHit(t *testing.T) {
	c, path := openTemp(t)
	const n = 8
	for i := 0; i < n; i++ {
		c.Put(testFP(i), testOuts(i))
	}
	c.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(clean); pos++ {
		data := append([]byte(nil), clean...)
		data[pos] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(path)
		if err != nil {
			t.Fatalf("flip at %d: Open: %v", pos, err)
		}
		for i := 0; i < n; i++ {
			outs, ok := re.Lookup(testFP(i))
			if !ok {
				continue // dropped: acceptable
			}
			want := testOuts(i)
			for k := range want {
				if k >= len(outs) || outs[k] != want[k] {
					t.Fatalf("flip at %d: entry %d survived with wrong content: %+v", pos, i, outs)
				}
			}
		}
		re.Close()
	}
}

// TestTruncationColdTail: every possible truncation point yields a
// usable cache holding a valid prefix of the entries, and the repaired
// file accepts new appends.
func TestTruncationColdTail(t *testing.T) {
	c, path := openTemp(t)
	const n = 5
	for i := 0; i < n; i++ {
		c.Put(testFP(i), testOuts(i))
	}
	c.Close()
	clean, _ := os.ReadFile(path)
	for cut := 0; cut < len(clean); cut++ {
		if err := os.WriteFile(path, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		got := re.Len()
		// Entries must form a prefix: if entry i survives, so do all
		// entries before it (they were appended in order).
		for i := 0; i < got; i++ {
			if _, ok := re.Lookup(testFP(i)); !ok {
				t.Fatalf("cut at %d: %d entries but entry %d missing (not a prefix)", cut, got, i)
			}
		}
		if err := re.Put(testFP(100+cut), testOuts(0)); err != nil {
			t.Fatalf("cut at %d: append after repair: %v", cut, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut at %d: close after repair: %v", cut, err)
		}
		re2, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: reopen after repair: %v", cut, err)
		}
		if _, ok := re2.Lookup(testFP(100 + cut)); !ok {
			t.Fatalf("cut at %d: entry appended after repair lost", cut)
		}
		re2.Close()
	}
}

func TestForeignFileColdCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.cache")
	if err := os.WriteFile(path, []byte("this is not a memo cache file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 0 {
		t.Fatalf("foreign file yielded %d entries", c.Len())
	}
	if dropped, repaired := c.Recovered(); !repaired || dropped == 0 {
		t.Fatalf("foreign file not reported repaired (dropped=%d, repaired=%v)", dropped, repaired)
	}
	if err := c.Put(testFP(1), testOuts(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("Len = %d after rewriting foreign file, want 1", re.Len())
	}
}

func TestConcurrentPutLookup(t *testing.T) {
	c, path := openTemp(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Put(testFP(g*100+i), testOuts(i))
				c.Lookup(testFP(i))
			}
		}(g)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 800 {
		t.Fatalf("Len = %d after concurrent puts, want 800", re.Len())
	}
}

// TestCacheIsJournalSegment: the cache file is one journal segment
// holding one entry record per distinct Put.
func TestCacheIsJournalSegment(t *testing.T) {
	c, path := openTemp(t)
	const n = 7
	for i := 0; i < n; i++ {
		c.Put(testFP(i), testOuts(i))
	}
	c.Put(testFP(0), testOuts(0)) // identical: no record
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn || len(rep.Records) != n {
		t.Fatalf("journal.Read: %d records (torn=%v), want %d", len(rep.Records), rep.Torn, n)
	}
	for i, rec := range rep.Records {
		if fp, _, ok := decodeEntry(rec); rec.Kind != kindEntry || !ok || fp != testFP(i) {
			t.Fatalf("record %d: kind %d, not entry %d", i, rec.Kind, i)
		}
	}
}

// TestOldFormatColdCache: a cache file of the earlier WFMEMO1 format
// opens cold, like any foreign file, and is rewritten as a segment.
func TestOldFormatColdCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.cache")
	old := append([]byte("WFMEMO1\n"), 4, 0, 0, 0, 'a', 'b', 'c', 'd', 1, 2, 3, 4)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped, repaired := c.Recovered(); c.Len() != 0 || !repaired || dropped != int64(len(old)) {
		t.Fatalf("old file: %d entries, dropped %d, repaired %v; want a cold cache", c.Len(), dropped, repaired)
	}
	c.Put(testFP(1), testOuts(1))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := journal.Read(path); err != nil || rep.Torn || len(rep.Records) != 1 {
		t.Fatalf("rewritten file is not a one-record segment: %+v, %v", rep, err)
	}
}

// TestOpenThenUseAtOnce: Open returns before the index is filled, and
// eight goroutines use the cache at once, straight away — Lookup,
// LookupBlock, Put, Len and Close, in that order. Every entry the cut
// file still holds whole hits from the first call on, Recovered answers
// before any of them, and the entry the cut tore never hits.
func TestOpenThenUseAtOnce(t *testing.T) {
	c, path := openTemp(t)
	const n = 3000
	fps := make([][32]byte, n)
	for i := range fps {
		fps[i] = testFP(i)
		if err := c.Put(fps[i], testOuts(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	c, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped, repaired := c.Recovered(); !repaired || dropped == 0 {
		t.Fatalf("Recovered() = %d, %v on a cut file", dropped, repaired)
	}
	whole := fps[:n-1]
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(whole); i += 8 {
				if outs, ok := c.Lookup(whole[i]); !ok || len(outs) != 2 || outs[0] != testOuts(i)[0] {
					t.Errorf("entry %d: Lookup = %v, %v", i, outs, ok)
				}
			}
			outs, found := make([][]Output, len(fps)), make([]bool, len(fps))
			LookupBlock(c, fps, outs, found)
			for i := range whole {
				if !found[i] || outs[i][1] != testOuts(i)[1] {
					t.Errorf("entry %d: LookupBlock = %v, %v", i, outs[i], found[i])
				}
			}
			if found[n-1] {
				t.Errorf("the torn entry hits: %v", outs[n-1])
			}
			for i := range 10 {
				c.Put(testFP(n+10*g+i), testOuts(i))
			}
			if got := c.Len(); got < len(whole)+10 {
				t.Errorf("Len = %d, want at least %d", got, len(whole)+10)
			}
			if err := c.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Len(), len(whole)+80; got != want {
		t.Fatalf("Len = %d after the puts, want %d", got, want)
	}
}
