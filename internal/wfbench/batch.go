package wfbench

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"wfserverless/internal/sharedfs"
)

// Batch wire format, shared by the workflow manager's batching
// dispatcher, the platform ingress, and the standalone service.
//
// A batch request body is a length-prefixed concatenation of the
// already-JSON-encoded single-task request bodies — the manager reuses
// its payload-arena slices without re-encoding or copying:
//
//	uvarint task count
//	per task: uvarint traceparent length, traceparent bytes,
//	          uvarint body length, body bytes (the /wfbench JSON)
//
// A batch response mirrors single-task HTTP semantics frame by frame,
// so the client can run its existing per-task retry/breaker
// classification unchanged:
//
//	uvarint task count (matching the request)
//	per task: uvarint HTTP status, uvarint Retry-After milliseconds,
//	          uvarint payload length, payload bytes
//	          (status 200: Response JSON; otherwise: error text)
const BatchContentType = "application/x-wfbench-batch"

// Decoder guards against corrupt or hostile frames.
const (
	maxBatchTasks   = 1 << 20
	maxFrameBytes   = 64 << 20
	maxPresizeBytes = 4 << 20 // largest Content-Length trusted to size a read buffer
)

// BatchItem is one decoded sub-request of a batch.
type BatchItem struct {
	Traceparent string
	Body        []byte
}

// BatchResult is one sub-response frame. Status carries the exact HTTP
// status a single-task POST would have answered with. On the serving
// side a frame that has a Response carries it as one: the encoder renders
// its JSON straight into the response body, and Payload is unused.
type BatchResult struct {
	Status           int
	RetryAfterMillis int64
	Payload          []byte
	Response         *Response
}

// AppendBatchCount appends the batch's task-count prefix.
func AppendBatchCount(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendBatchItemHeader appends one sub-request's frame header (the
// traceparent plus the length prefix of the body that follows). The
// body bytes themselves are written separately so callers can stream
// pre-encoded payloads zero-copy.
func AppendBatchItemHeader(dst []byte, traceparent string, bodyLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(traceparent)))
	dst = append(dst, traceparent...)
	return binary.AppendUvarint(dst, uint64(bodyLen))
}

// EncodeBatchRequest renders a complete batch request body (the
// convenience form used by tests and the fault injector's re-framing;
// the manager streams arena slices instead).
func EncodeBatchRequest(items []BatchItem) []byte {
	out := AppendBatchCount(nil, len(items))
	for _, it := range items {
		out = AppendBatchItemHeader(out, it.Traceparent, len(it.Body))
		out = append(out, it.Body...)
	}
	return out
}

// ReadBatchBody slurps an HTTP batch body, in a single exact-size
// allocation when the Content-Length is declared. A declared length past
// maxPresizeBytes is a claim the body has yet to back: that read grows
// with the bytes that arrive instead.
func ReadBatchBody(r *http.Request) ([]byte, error) { return readBatchBody(nil, r) }

// readBatchBody is ReadBatchBody into buf[:0], a buffer the caller is
// done with.
func readBatchBody(buf []byte, r *http.Request) ([]byte, error) {
	n := r.ContentLength
	if n < 0 || n > maxPresizeBytes {
		b := bytes.NewBuffer(buf[:0])
		_, err := b.ReadFrom(r.Body)
		return b.Bytes(), err
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	_, err := io.ReadFull(r.Body, buf)
	return buf, err
}

// DecodeBatchRequestBytes parses a batch request body in place: every
// BatchItem.Body aliases data instead of copying its frame, so a wide
// batch decodes with one allocation for the item slice. Callers must
// keep data alive for as long as the items.
func DecodeBatchRequestBytes(data []byte) ([]BatchItem, error) {
	items, _, err := decodeBatchItems(nil, nil, data)
	return items, err
}

// decodeBatchItems is DecodeBatchRequestBytes into slices the caller
// recycles, also giving offs[i], where items[i].Body starts in data.
func decodeBatchItems(items []BatchItem, offs []int, data []byte) ([]BatchItem, []int, error) {
	c := batchCursor{buf: data}
	n, err := c.count()
	if err != nil {
		return nil, nil, err
	}
	// A task takes at least its two length prefixes: refuse a count the body
	// cannot hold before a few hostile bytes buy a million-entry allocation.
	if rest := len(data) - c.off; 2*n > rest {
		return nil, nil, fmt.Errorf("wfbench: batch task count %d, but only %d byte(s) follow: %w", n, rest, io.ErrUnexpectedEOF)
	}
	items, offs = resize(items, n), resize(offs, n)
	for i := range items {
		tp, err := c.frame(256, "traceparent")
		if err != nil {
			return nil, nil, fmt.Errorf("wfbench: batch task %d: %w", i, err)
		}
		body, err := c.frame(maxFrameBytes, "body")
		if err != nil {
			return nil, nil, fmt.Errorf("wfbench: batch task %d: %w", i, err)
		}
		items[i], offs[i] = BatchItem{Traceparent: string(tp), Body: body}, c.off-len(body)
	}
	return items, offs, nil
}

// resize returns s with length n, reusing its array when that is large
// enough; what a reused element held is the caller's to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EncodeBatchResponse renders a complete batch response body.
func EncodeBatchResponse(results []BatchResult) []byte {
	return appendBatchResponse(nil, results)
}

// appendBatchResponse appends the response body for results to dst, sized
// up front so a wide batch encodes without growth copies.
func appendBatchResponse(dst []byte, results []BatchResult) []byte {
	size := binary.MaxVarintLen64
	for i := range results {
		res := &results[i]
		size += resultHeaderMax + len(res.Payload)
		if r := res.Response; r != nil {
			size += 128 + len(r.Name) + len(r.Error) + len(r.Pod) // a guess: append grows past it
		}
	}
	dst = AppendBatchCount(slices.Grow(dst, size), len(results))
	for i := range results {
		dst = appendBatchResult(dst, &results[i])
	}
	return dst
}

// resultHeaderMax bounds a frame's three uvarints.
const resultHeaderMax = 3 * binary.MaxVarintLen64

func appendBatchResult(dst []byte, res *BatchResult) []byte {
	status, payload := res.Status, res.Payload
	if res.Response != nil {
		// The frame header holds the payload's length, which is known once it
		// is rendered: render it past room for the widest header, write the
		// real one, and move the payload down against it.
		start := len(dst)
		dst = append(dst, make([]byte, resultHeaderMax)...)
		var err error
		if dst, err = AppendResponse(dst, res.Response); err == nil {
			rendered := dst[start+resultHeaderMax:]
			dst = appendResultHeader(dst[:start], status, res.RetryAfterMillis, len(rendered))
			return dst[:len(dst)+copy(dst[len(dst):cap(dst)], rendered)]
		}
		dst, status, payload = dst[:start], http.StatusInternalServerError, []byte(err.Error())
	}
	return append(appendResultHeader(dst, status, res.RetryAfterMillis, len(payload)), payload...)
}

func appendResultHeader(dst []byte, status int, retryAfterMillis int64, payloadLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(status))
	dst = binary.AppendUvarint(dst, uint64(retryAfterMillis))
	return binary.AppendUvarint(dst, uint64(payloadLen))
}

// DecodeBatchResponse parses a full batch response body strictly —
// every frame must decode. Clients that want to salvage the frames
// before a corrupt one use BatchResponseReader instead.
func DecodeBatchResponse(r io.Reader) ([]BatchResult, error) {
	br, err := NewBatchResponseReader(r)
	if err != nil {
		return nil, err
	}
	// Size by what the body can hold (a frame is >= 3 bytes), not its claim.
	out := make([]BatchResult, 0, min(br.Len(), len(br.c.buf)/3))
	for i := 0; i < br.Len(); i++ {
		res, err := br.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// BatchResponseReader walks a batch response frame by frame. A framing
// error from Next is terminal (the remaining frames cannot be located),
// but a frame whose payload is garbage still decodes here — payload
// interpretation is the caller's per-task concern, so one corrupt
// sub-response cannot poison its batch-mates.
type BatchResponseReader struct {
	c batchCursor
	n int
	i int
}

// NewBatchResponseReader reads the full body and parses the count
// prefix. Clients that already hold the body use
// NewBatchResponseReaderBytes to skip the copy.
func NewBatchResponseReader(r io.Reader) (*BatchResponseReader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wfbench: batch response body: %w", err)
	}
	return NewBatchResponseReaderBytes(data)
}

// NewBatchResponseReaderBytes parses the count prefix of an in-memory
// body. Every BatchResult.Payload from Next aliases data.
func NewBatchResponseReaderBytes(data []byte) (*BatchResponseReader, error) {
	r := &BatchResponseReader{c: batchCursor{buf: data}}
	n, err := r.c.count()
	if err != nil {
		return nil, err
	}
	r.n = n
	return r, nil
}

// Len returns the declared frame count.
func (r *BatchResponseReader) Len() int { return r.n }

// Next returns the next frame.
func (r *BatchResponseReader) Next() (BatchResult, error) {
	if r.i >= r.n {
		return BatchResult{}, io.EOF
	}
	r.i++
	status, err := r.c.uvarint("wfbench: batch response status")
	if err != nil {
		return BatchResult{}, err
	}
	if status < 100 || status > 599 {
		return BatchResult{}, fmt.Errorf("wfbench: batch response status %d out of range", status)
	}
	retryAfter, err := r.c.uvarint("wfbench: batch response retry-after")
	if err != nil {
		return BatchResult{}, err
	}
	payload, err := r.c.frame(maxFrameBytes, "payload")
	if err != nil {
		return BatchResult{}, fmt.Errorf("wfbench: batch response: %w", err)
	}
	return BatchResult{Status: int(status), RetryAfterMillis: int64(retryAfter), Payload: payload}, nil
}

// batchCursor walks a fully-read batch body, returning frames that
// alias the underlying buffer.
type batchCursor struct {
	buf []byte
	off int
}

func (c *batchCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n > 0 {
		c.off += n
		return v, nil
	}
	if n == 0 {
		return 0, fmt.Errorf("%s: %w", what, io.ErrUnexpectedEOF)
	}
	return 0, fmt.Errorf("%s: varint overflows 64 bits", what)
}

// count reads a body's task-count prefix.
func (c *batchCursor) count() (int, error) {
	v, err := c.uvarint("wfbench: batch task count")
	if err != nil {
		return 0, err
	}
	if v > maxBatchTasks {
		return 0, fmt.Errorf("wfbench: batch task count %d exceeds limit %d", v, maxBatchTasks)
	}
	return int(v), nil
}

func (c *batchCursor) frame(max uint64, what string) ([]byte, error) {
	// Length prefix read inline: building the "<what> length" error label
	// eagerly would allocate on every frame of every batch.
	l, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		if n == 0 {
			return nil, fmt.Errorf("%s length: %w", what, io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("%s length: varint overflows 64 bits", what)
	}
	c.off += n
	if l > max {
		return nil, fmt.Errorf("%s length %d exceeds limit %d", what, l, max)
	}
	end := c.off + int(l)
	if uint64(len(c.buf)-c.off) < l {
		return nil, fmt.Errorf("%s bytes: %w", what, io.ErrUnexpectedEOF)
	}
	b := c.buf[c.off:end:end]
	c.off = end
	return b, nil
}

// BatchPrep is the shared verification state of one batch: the union of
// the batch's input files, waited for and content-hashed once, so each
// sub-task's input phase reduces to map lookups instead of its own
// drive waits (and, on content-addressed drives, instead of re-reading
// staged bytes).
type BatchPrep struct {
	hashes  map[string]uint64
	present map[string]struct{}
}

// PrepareInputs waits (up to wait) for the union of the batch's input
// files and resolves their content hashes where the drive supports it.
// Files still missing at the deadline simply stay absent from the prep;
// the sub-tasks that need them fail their own input check. inputs is the
// caller's scratch (Batch.Decode's): it is compacted in place.
func PrepareInputs(ctx context.Context, d sharedfs.Drive, inputs []string, wait time.Duration) *BatchPrep {
	p := &BatchPrep{present: make(map[string]struct{})}
	uniq := inputs[:0]
	for _, in := range inputs {
		if _, ok := p.present[in]; !ok {
			p.present[in] = struct{}{}
			uniq = append(uniq, in)
		}
	}
	if len(uniq) == 0 {
		return p
	}
	waitCtx, cancel := context.WithTimeout(ctx, wait)
	missing, _ := sharedfs.WaitFor(waitCtx, d, uniq, wait/20)
	cancel()
	for _, m := range missing {
		delete(p.present, m)
	}
	if hasher, ok := d.(sharedfs.Hasher); ok {
		p.hashes = make(map[string]uint64, len(p.present))
		for in := range p.present {
			if h, ok := hasher.ContentHash(in); ok {
				p.hashes[in] = h
			}
		}
	}
	return p
}

// Verified reports whether the prep confirmed the input present.
func (p *BatchPrep) Verified(name string) bool {
	_, ok := p.present[name]
	return ok
}

// Hash returns the input's content hash, when the drive could provide
// one.
func (p *BatchPrep) Hash(name string) (uint64, bool) {
	h, ok := p.hashes[name]
	return h, ok
}

// missingOf returns the subset of inputs the prep could not verify.
func (p *BatchPrep) missingOf(inputs []string) []string {
	var missing []string
	for _, in := range inputs {
		if !p.Verified(in) {
			missing = append(missing, in)
		}
	}
	return missing
}

// WriteBatchResponse writes an encoded batch response with the batch
// content type.
func WriteBatchResponse(w http.ResponseWriter, results []BatchResult) {
	writeBatchBody(w, EncodeBatchResponse(results))
}

func writeBatchBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", BatchContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
