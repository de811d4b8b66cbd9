package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildSegment encodes records into valid segment bytes and returns the
// byte offset where each record's envelope ends, so tests can damage
// known positions.
func buildSegment(records []Record) (data []byte, ends []int) {
	data = append(data, segMagic[:]...)
	for _, r := range records {
		data = AppendRecord(data, r.Kind, r.Data)
		ends = append(ends, len(data))
	}
	return data, ends
}

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Kind: uint8(1 + i%7), Data: []byte(fmt.Sprintf("payload-%04d", i))}
	}
	return recs
}

// readBytes parses raw segment bytes through the public reader.
func readBytes(t testing.TB, raw []byte) *Replay {
	t.Helper()
	p := filepath.Join(t.TempDir(), "journal-00000001.wal")
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Read(p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestTruncationRecoversPrefix cuts a valid segment at every possible
// byte offset and asserts the reader recovers exactly the records that
// were fully written before the cut — the crash-mid-append guarantee.
func TestTruncationRecoversPrefix(t *testing.T) {
	recs := testRecords(20)
	data, ends := buildSegment(recs)
	for cut := 0; cut <= len(data); cut++ {
		rep := readBytes(t, data[:cut])
		wantN := 0
		for _, end := range ends {
			if end <= cut {
				wantN++
			}
		}
		if len(rep.Records) != wantN {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(rep.Records), wantN)
		}
		for i, r := range rep.Records {
			if string(r.Data) != string(recs[i].Data) || r.Kind != recs[i].Kind {
				t.Fatalf("cut at %d: record %d mismatch", cut, i)
			}
		}
		// A cut on a record boundary (or right after the magic) is
		// indistinguishable from a clean shutdown; anything else is torn.
		atBoundary := cut == len(segMagic)
		for _, end := range ends {
			if cut == end {
				atBoundary = true
			}
		}
		if rep.Torn == atBoundary {
			t.Fatalf("cut at %d: torn=%v, boundary=%v", cut, rep.Torn, atBoundary)
		}
	}
}

// TestBitFlipRecoversPrefix flips a bit at every byte of a valid segment
// and asserts the CRC stops the reader at the damaged record, with every
// earlier record recovered intact.
func TestBitFlipRecoversPrefix(t *testing.T) {
	recs := testRecords(12)
	data, ends := buildSegment(recs)
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 1 << (pos % 8)
		rep := readBytes(t, mut)
		// The record containing the flipped byte and everything after it
		// are lost; everything before it must survive.
		wantN := 0
		if pos >= len(segMagic) {
			for _, end := range ends {
				if end <= pos {
					wantN++
				}
			}
		}
		if !rep.Torn {
			t.Fatalf("flip at %d: corruption not detected", pos)
		}
		if len(rep.Records) != wantN {
			t.Fatalf("flip at %d: recovered %d records, want %d", pos, len(rep.Records), wantN)
		}
		for i, r := range rep.Records {
			if string(r.Data) != string(recs[i].Data) || r.Kind != recs[i].Kind {
				t.Fatalf("flip at %d: record %d mismatch", pos, i)
			}
		}
	}
}

// FuzzJournalReader feeds arbitrary bytes to the segment reader. The
// reader must never panic and never return an error for corrupt content
// (only for I/O failures), and every record it does return must
// re-encode to exactly the input bytes at its offset — i.e. recovered
// records are always a verbatim prefix of what a writer produced. The
// same seven shapes are also checked in, under readable names, in
// testdata/fuzz/FuzzJournalReader.
func FuzzJournalReader(f *testing.F) {
	valid, _ := buildSegment(testRecords(3))
	f.Add([]byte{})
	f.Add(segMagic[:])
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(segMagic)+recHeaderSize+2] ^= 0x10 // bit flip in first payload
	f.Add(flipped)
	f.Add([]byte("not a journal at all"))
	huge := append([]byte(nil), segMagic[:]...)
	huge = binary.LittleEndian.AppendUint32(huge, 0xFFFFFFFF) // absurd length prefix
	huge = append(huge, 0, 0, 0, 0, 1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, raw []byte) {
		rep := readBytes(t, raw)
		reencoded, _ := buildSegment(rep.Records)
		if len(raw) >= len(segMagic) && [8]byte(raw[:8]) == segMagic {
			if len(reencoded) > len(raw) || string(raw[:len(reencoded)]) != string(reencoded) {
				t.Fatalf("recovered records are not a verbatim prefix of the input")
			}
			if rep.Torn {
				if rep.TornOffset != int64(len(reencoded)) {
					t.Fatalf("torn offset %d does not follow last intact record at %d",
						rep.TornOffset, len(reencoded))
				}
			} else if len(reencoded) != len(raw) {
				t.Fatalf("clean read consumed %d of %d bytes", len(reencoded), len(raw))
			}
		} else if len(rep.Records) != 0 || !rep.Torn {
			t.Fatalf("input without magic yielded records=%d torn=%v", len(rep.Records), rep.Torn)
		}
	})
}

// FuzzJournalReopen writes arbitrary bytes as the last segment of a
// journal whose first segment is intact, then opens it, appends and
// closes. Open must not fail on the content, and a fresh Read must
// return exactly the records Open recovered followed by the appended
// one.
func FuzzJournalReopen(f *testing.F) {
	valid, _ := buildSegment(testRecords(3))
	f.Add([]byte{})
	f.Add(segMagic[:4]) // cut inside the magic
	f.Add(segMagic[:])
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte("not a journal at all"))
	first, _ := buildSegment(testRecords(2))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), first, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(dir, 2), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("Open failed on the content: %v", err)
		}
		want := append(j.Records(), Record{Kind: 1, Data: []byte("appended")})
		appendT(t, j, 1, "appended")
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		rep, err := Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Torn || len(rep.Records) != len(want) {
			t.Fatalf("read back %d records (torn=%v), want %d", len(rep.Records), rep.Torn, len(want))
		}
		for i, r := range rep.Records {
			if r.Kind != want[i].Kind || string(r.Data) != string(want[i].Data) {
				t.Fatalf("record %d = %d/%q, want %d/%q", i, r.Kind, r.Data, want[i].Kind, want[i].Data)
			}
		}
	})
}

func BenchmarkAppend(b *testing.B) {
	payload := make([]byte, 64)
	for _, policy := range []SyncPolicy{SyncGroup, SyncAlways, SyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			j, err := Open(b.TempDir(), Options{Sync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.SetBytes(int64(recHeaderSize + len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.Append(1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
