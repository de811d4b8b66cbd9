package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func appendT(t *testing.T, j *Journal, kind uint8, data string) {
	t.Helper()
	if err := j.Append(kind, []byte(data)); err != nil {
		t.Fatal(err)
	}
}

func wantRecords(t *testing.T, got []Record, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if string(got[i].Data) != w {
			t.Fatalf("record %d = %q, want %q", i, got[i].Data, w)
		}
	}
}

func TestAppendReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever})
	for i := 0; i < 100; i++ {
		appendT(t, j, uint8(1+i%5), fmt.Sprintf("record-%03d", i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, dir, Options{})
	defer j2.Close()
	if j2.Torn() {
		t.Fatal("clean close reported torn")
	}
	recs := j2.Records()
	if len(recs) != 100 {
		t.Fatalf("recovered %d records, want 100", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("record-%03d", i); string(r.Data) != want {
			t.Fatalf("record %d = %q, want %q", i, r.Data, want)
		}
		if r.Kind != uint8(1+i%5) {
			t.Fatalf("record %d kind = %d, want %d", i, r.Kind, 1+i%5)
		}
	}
}

func TestAppendAfterReopenExtends(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever})
	appendT(t, j, 1, "first")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j = openT(t, dir, Options{Sync: SyncNever})
	appendT(t, j, 1, "second")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rep.Records, "first", "second")
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever})
	appendT(t, j, 1, "alpha")
	appendT(t, j, 1, "beta")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the tail so the last
	// record's envelope is incomplete.
	seg := segPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	j = openT(t, dir, Options{Sync: SyncNever})
	if !j.Torn() {
		t.Fatal("expected torn tail")
	}
	wantRecords(t, j.Records(), "alpha")

	// The torn tail was truncated: appending and re-reading yields a
	// clean journal with the new record following the intact one.
	appendT(t, j, 1, "gamma")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Fatal("journal still torn after repair")
	}
	wantRecords(t, rep.Records, "alpha", "gamma")
}

func TestBitFlipStopsAtCorruption(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever})
	appendT(t, j, 1, "aaaa")
	appendT(t, j, 1, "bbbb")
	appendT(t, j, 1, "cccc")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the middle record's payload: CRC must reject
	// it and the reader must stop there with only the first record.
	mid := len(segMagic) + (recHeaderSize+4)*1 + recHeaderSize + 1
	data[mid] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn {
		t.Fatal("bit flip not detected")
	}
	wantRecords(t, rep.Records, "aaaa")
	if rep.TornOffset != int64(len(segMagic)+recHeaderSize+4) {
		t.Fatalf("torn offset %d, want %d", rep.TornOffset, len(segMagic)+recHeaderSize+4)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever, SegmentBytes: 256})
	payload := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 20; i++ {
		if err := j.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(rep.Segments))
	}
	if len(rep.Records) != 20 {
		t.Fatalf("recovered %d records across segments, want 20", len(rep.Records))
	}
	if j.Stats().Rotations == 0 {
		t.Fatal("stats recorded no rotations")
	}
}

func TestCompactKeepsSnapshotDropsHistory(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever, SegmentBytes: 128})
	for i := 0; i < 50; i++ {
		appendT(t, j, 1, fmt.Sprintf("event-%02d", i))
	}
	if err := j.Compact([]byte("snapshot-state")); err != nil {
		t.Fatal(err)
	}
	appendT(t, j, 1, "after-snapshot")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) != 1 {
		t.Fatalf("compaction left %d segments, want 1", len(rep.Segments))
	}
	wantRecords(t, rep.Records, "snapshot-state", "after-snapshot")
	if rep.Records[0].Kind != KindSnapshot {
		t.Fatalf("first record kind %d, want snapshot", rep.Records[0].Kind)
	}
	base, ok := Snapshot(rep.Records)
	if !ok || base != 1 {
		t.Fatalf("Snapshot() = (%d, %v), want (1, true)", base, ok)
	}
}

func TestAppendRejectsSnapshotKind(t *testing.T) {
	j := openT(t, t.TempDir(), Options{})
	defer j.Close()
	if err := j.Append(KindSnapshot, []byte("x")); err == nil {
		t.Fatal("Append accepted the reserved snapshot kind")
	}
}

func TestGroupCommitEventuallySyncs(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncGroup, GroupWindow: time.Millisecond})
	appendT(t, j, 1, "grouped")
	deadline := time.Now().Add(2 * time.Second)
	for j.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("group committer never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
	// The record is durable without Close: a fresh reader sees it.
	rep, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rep.Records, "grouped")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitBatchesSyncs(t *testing.T) {
	j := openT(t, t.TempDir(), Options{Sync: SyncGroup, GroupWindow: 20 * time.Millisecond})
	for i := 0; i < 1000; i++ {
		appendT(t, j, 1, "burst")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	// 1000 appends inside one or two windows must collapse into a
	// handful of fsyncs (the Close sync included), not one per record.
	if st.Syncs > 10 {
		t.Fatalf("group commit issued %d fsyncs for %d appends", st.Syncs, st.Appends)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncGroup, GroupWindow: time.Millisecond, SegmentBytes: 4096})
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append(1, []byte(fmt.Sprintf("w%d-%04d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Fatal("concurrent appends produced a torn journal")
	}
	if len(rep.Records) != writers*per {
		t.Fatalf("recovered %d records, want %d", len(rep.Records), writers*per)
	}
}

func TestAbortDropsUnflushed(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever})
	appendT(t, j, 1, "flushed")
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	appendT(t, j, 1, "staged-only")
	j.Abort()

	j2 := openT(t, dir, Options{})
	defer j2.Close()
	// The synced record survives the simulated crash; the staged one is
	// gone — exactly what process death does to user-space buffers.
	wantRecords(t, j2.Records(), "flushed")
}

func TestAppendAfterCloseFails(t *testing.T) {
	j := openT(t, t.TempDir(), Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, []byte("late")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := j.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}

func TestReadSingleSegmentFile(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever})
	appendT(t, j, 1, "solo")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Read(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rep.Records, "solo")
}

func TestReadRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "not-a-journal")
	if err := os.WriteFile(p, []byte("hello, I am JSON or something"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Read(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || len(rep.Records) != 0 {
		t.Fatalf("foreign file parsed as journal: torn=%v records=%d", rep.Torn, len(rep.Records))
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	j := openT(t, t.TempDir(), Options{})
	defer j.Close()
	if err := j.Append(1, make([]byte, maxRecordSize)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

// TestReopenAfterCutAtEveryByte cuts a two-segment journal at every byte
// of its concatenated segments (a cut in the first segment leaves the
// second whole), then opens it, appends, closes and reads: the read must
// be the records Open recovered followed by the appended one, and a
// segment Open set aside must still hold every byte it held.
func TestReopenAfterCutAtEveryByte(t *testing.T) {
	recs := testRecords(6)
	seg1, _ := buildSegment(recs[:3])
	seg2, _ := buildSegment(recs[3:])
	for cut := 0; cut <= len(seg1)+len(seg2); cut++ {
		dir := t.TempDir()
		one, two := seg1, seg2
		if cut <= len(seg1) {
			one = seg1[:cut]
		} else {
			two = seg2[:cut-len(seg1)]
		}
		for seq, data := range [][]byte{one, two} {
			if err := os.WriteFile(segPath(dir, seq+1), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j := openT(t, dir, Options{Sync: SyncNever})
		got := j.Records()
		appendT(t, j, 1, "appended")
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		rep, err := Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Torn || len(rep.Records) != len(got)+1 || string(rep.Records[len(got)].Data) != "appended" {
			t.Fatalf("cut at %d: read %d records (torn=%v) after reopening with %d, want the append last",
				cut, len(rep.Records), rep.Torn, len(got))
		}
		for i, r := range got {
			if r.Kind != rep.Records[i].Kind || !bytes.Equal(r.Data, rep.Records[i].Data) {
				t.Fatalf("cut at %d: record %d changed across the reopen", cut, i)
			}
		}
		if aside, err := os.ReadFile(segPath(dir, 2) + ".torn"); err == nil && !bytes.Equal(aside, two) {
			t.Fatalf("cut at %d: the segment set aside lost bytes", cut)
		}
	}
}

// TestReopenEmptySegmentKeepsAppend: a crash between creating a segment
// and writing its magic leaves an empty file; the record appended after
// reopening is read back.
func TestReopenEmptySegmentKeepsAppend(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever})
	appendT(t, j, 1, "a")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 2), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j = openT(t, dir, Options{Sync: SyncNever})
	appendT(t, j, 1, "b")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j = openT(t, dir, Options{Sync: SyncNever})
	defer j.Close()
	wantRecords(t, j.Records(), "a", "b")
}

// TestReopenPastCorruptSegmentKeepsAppend: a flipped byte in the first
// of several segments stops the replay there; the record appended after
// reopening is read back, and the later segments are set aside, not
// deleted.
func TestReopenPastCorruptSegmentKeepsAppend(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncAlways, SegmentBytes: 40})
	for i := 0; i < 6; i++ {
		appendT(t, j, 1, fmt.Sprintf("rec-%d", i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := Segments(dir)
	if err != nil || len(before) < 3 {
		t.Fatalf("want at least 3 segments, got %d (%v)", len(before), err)
	}
	data, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	j = openT(t, dir, Options{Sync: SyncNever, SegmentBytes: 40})
	recovered := len(j.Records())
	appendT(t, j, 1, "after")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn || len(rep.Records) != recovered+1 || string(rep.Records[recovered].Data) != "after" {
		t.Fatalf("read %d records (torn=%v) after reopening with %d, want the append last",
			len(rep.Records), rep.Torn, recovered)
	}
	for _, seg := range before[1:] {
		if _, err := os.Stat(seg.Path + ".torn"); err != nil {
			t.Fatalf("segment %d was not set aside: %v", seg.Seq, err)
		}
	}
}

// TestReadSkipsBackupCopies: only journal-%08d.wal names are segments;
// a .bak or ~ copy beside one is not read.
func TestReadSkipsBackupCopies(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, dir, Options{Sync: SyncNever})
	appendT(t, j, 1, "once")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, copyName := range []string{segPath(dir, 1) + ".bak", segPath(dir, 1) + "~", filepath.Join(dir, "journal-1.wal")} {
		if err := os.WriteFile(copyName, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) != 1 {
		t.Fatalf("read %d segments, want 1", len(rep.Segments))
	}
	wantRecords(t, rep.Records, "once")
}
