package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file is the one place the repo's record files are spelled out
// byte by byte: the segment magic, the record envelope, the scan that
// stops at the first damaged record, the repair that lets a writer
// append after it, the segment-name pattern, and the payload cursor.

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

// castagnoli is the CRC32C table (the storage-grade polynomial, SSE4.2
// accelerated by hash/crc32 on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends the envelope of one record, kind and data, to b.
func AppendRecord(b []byte, kind uint8, data []byte) []byte {
	at := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(1+len(data)))
	b = append(append(b, 0, 0, 0, 0, kind), data...)
	binary.LittleEndian.PutUint32(b[at+4:], crc32.Checksum(b[at+8:], castagnoli))
	return b
}

// NextRecord decodes the envelope at the head of b and returns the
// record and the envelope's length; ok is false unless b starts with a
// whole envelope whose CRC checks. rec.Data aliases b.
func NextRecord(b []byte) (rec Record, n int, ok bool) {
	if len(b) < recHeaderSize {
		return Record{}, 0, false
	}
	length := binary.LittleEndian.Uint32(b)
	if length == 0 || length > maxRecordSize || uint64(length) > uint64(len(b)-8) {
		return Record{}, 0, false
	}
	body := b[8 : 8+length]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, false
	}
	return Record{Kind: body[0], Data: body[1:]}, 8 + int(length), true
}

// Scan calls fn with each intact record of seg, one segment file's
// bytes, in order, and returns the offset just past the last record fn
// accepted. It returns 0 when seg does not open with the magic, and
// stops short of len(seg) at a torn or corrupt envelope or when fn
// returns false. rec.Data aliases seg.
func Scan(seg []byte, fn func(Record) bool) int {
	if len(seg) < len(segMagic) || [8]byte(seg) != segMagic {
		return 0
	}
	off := len(segMagic)
	for off < len(seg) {
		rec, n, ok := NextRecord(seg[off:])
		if !ok || !fn(rec) {
			break
		}
		off += n
	}
	return off
}

// OpenSegment opens the segment file at path for appending after end,
// the offset Scan returned for it, creating the file if there is none.
// Whatever follows end is cut, and a cut inside the magic gets the
// magic back, so the next Scan of the file ends at the last record
// appended. It returns the file and its size.
func OpenSegment(path string, end int64) (*os.File, int64, error) {
	return openSegmentFile(path, end, os.O_CREATE)
}

func openSegmentFile(path string, end int64, flag int) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	if end < int64(len(segMagic)) {
		end = 0
	}
	if err = f.Truncate(end); err == nil && end == 0 {
		_, err = f.Write(segMagic[:])
		end = int64(len(segMagic))
	}
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("journal: repairing %s: %w", path, err)
	}
	return f, end, nil
}

// segPath names segment seq in dir.
func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%08d.wal", seq))
}

// Segments lists the segment files in dir in sequence order. A segment
// is named exactly journal-%08d.wal: a backup copy, an editor's ~ file
// or a segment Open set aside is not one.
func Segments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(e.Name(), "journal-"), ".wal"))
		if err != nil || seq < 1 || segPath(dir, seq) != path || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		segs = append(segs, SegmentInfo{Path: path, Seq: seq, Size: info.Size()})
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].Seq < segs[k].Seq })
	return segs, nil
}

// setAside renames a segment that follows a torn one out of the segment
// pattern, to <name>.torn (.torn.N when an earlier repair took that
// name), so the writer can take its sequence number without deleting
// what it held.
func setAside(path string) error {
	to := path + ".torn"
	for n := 1; ; n++ {
		if _, err := os.Lstat(to); errors.Is(err, fs.ErrNotExist) {
			break
		} else if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		to = fmt.Sprintf("%s.torn.%d", path, n)
	}
	if err := os.Rename(path, to); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Cursor reads a record payload field by field. Its error is sticky:
// the first short or malformed field sets Err, and every read after it
// returns a zero value.
type Cursor struct {
	b   []byte
	err error
}

var errShortPayload = errors.New("journal: truncated payload")

// NewCursor returns a cursor at the start of data.
func NewCursor(data []byte) Cursor { return Cursor{b: data} }

func (c *Cursor) fail() {
	c.b, c.err = nil, errShortPayload
}

// Err reports the first field that could not be read.
func (c *Cursor) Err() error { return c.err }

// Rest returns the bytes not read yet.
func (c *Cursor) Rest() []byte { return c.b }

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if len(c.b) < 1 {
		c.fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// Bytes reads the next n bytes; the slice aliases the payload.
func (c *Cursor) Bytes(n int) []byte {
	if n < 0 || len(c.b) < n {
		c.fail()
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// Uvarint reads an unsigned varint, inline if it is one byte long.
func (c *Cursor) Uvarint() uint64 {
	for _, x := range c.b {
		if x < 0x80 {
			c.b = c.b[1:]
			return uint64(x)
		}
		break
	}
	return slowPath(c, (*Cursor).uvarintSlow)
}

func (c *Cursor) uvarintSlow() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail()
		return 0
	}
	c.b = c.b[n:]
	return v
}

// slowPath is f(c): a call to a function parameter costs the inliner a
// third of a direct call, so Uvarint and Field stay inlinable, and once
// they are inlined the call is a direct one again.
func slowPath[T any](c *Cursor, f func(*Cursor) T) T { return f(c) }

// Varint reads a signed varint.
func (c *Cursor) Varint() int64 {
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail()
		return 0
	}
	c.b = c.b[n:]
	return v
}

// Field reads a field AppendField wrote, inline if it is shorter than
// 128 bytes; the slice aliases the payload.
func (c *Cursor) Field() []byte {
	if b := c.b; len(b) != 0 && b[0] < 0x80 && int(b[0]) < len(b) {
		n := 1 + int(b[0])
		c.b = b[n:]
		return b[1:n]
	}
	return slowPath(c, (*Cursor).fieldSlow)
}

func (c *Cursor) fieldSlow() []byte {
	n := c.Uvarint()
	return c.Bytes(int(min(n, uint64(len(c.b))+1))) // past the payload: Bytes fails
}

// AppendField appends f behind its uvarint length: the encoder half of
// Cursor.Field.
func AppendField[T ~string | ~[]byte](b []byte, f T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(f))), f...)
}
