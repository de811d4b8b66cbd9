package wfm

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"

	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// invocationPlan is the pre-computed invocation side of a workflow. The
// manager invokes every task at least once and flaky tasks many times,
// so everything derivable from the workflow alone is rendered up front,
// ID-aligned with the compiled DAG: the WfBench JSON bodies (one
// contiguous payload arena plus an offset table, appended by the wire
// codec's own encoder), each task's sorted input names (one arena, what
// a worker checks on the drive before it invokes) and the parsed
// endpoint URLs (deduplicated — a translated workflow typically points
// every task at one ingress). There is nothing per task in it but
// offsets and a pointer: an attempt builds its own request around them
// (invokeOnce), a batch its frames (batchFrames). Nothing in a plan
// changes once it is built, so runs may share one.
type invocationPlan struct {
	tasks  []*wfformat.Task // ID-aligned with the run's dag.CSR
	urls   []*url.URL       // each task's parsed api_url, shared by the tasks that have the same
	bodies []byte           // payload arena: all request bodies back to back
	off    []int32          // len(tasks)+1 offsets into bodies
	ins    []string         // input-name arena: every task's input files, sorted per task
	insOff []int32          // len(tasks)+1 offsets into ins
	ext    []wfformat.File  // external inputs: the header's staging manifest
}

// sharedJSONHeader is the one header map every invocation shares. It
// must never be mutated: net/http treats an outgoing request's Header
// as read-only (it only clones it when the URL carries userinfo, which
// translated api_urls never do).
var sharedJSONHeader = http.Header{"Content-Type": {"application/json"}}

// newInvocationPlan renders the per-task invocation artifacts for the
// ID-aligned task slice produced by wfformat.Workflow.ValidateCompile,
// whose staging manifest ext is.
func newInvocationPlan(tasks []*wfformat.Task, ext []wfformat.File) (*invocationPlan, error) {
	n := len(tasks)
	p := &invocationPlan{
		tasks:  tasks,
		urls:   make([]*url.URL, n),
		off:    make([]int32, n+1),
		insOff: make([]int32, n+1),
		ext:    ext,
	}
	// The arena is sized from what goes into it: the names a body carries
	// plus room for its keys and numbers. A guess — append grows past it.
	size := 0
	for _, task := range tasks {
		if len(task.Command.Arguments) == 0 {
			return nil, fmt.Errorf("wfm: task %q has no argument block; malformed translated workflow", task.Name)
		}
		arg := &task.Command.Arguments[0]
		size += 96 + len(arg.Name) + len(arg.Workdir)
		for out := range arg.Out {
			size += len(out) + 12
		}
		for _, in := range arg.Inputs {
			size += len(in) + 3
		}
	}
	buf := make([]byte, 0, size)
	p.ins = make([]string, 0, n) // most tasks read one file
	urls := make(map[string]*url.URL)
	var wreq wfbench.Request // one for all tasks: the encoder's fallback makes it escape
	for i, task := range tasks {
		arg := task.Command.Arguments[0]
		wreq = wfbench.Request{
			Name:       arg.Name,
			PercentCPU: arg.PercentCPU,
			CPUWork:    arg.CPUWork,
			Cores:      task.Cores,
			MemBytes:   arg.MemBytes,
			Out:        arg.Out,
			Inputs:     arg.Inputs,
			Workdir:    arg.Workdir,
		}
		// One body per line, as json.Encoder wrote them.
		var err error
		if buf, err = wfbench.AppendRequest(buf, &wreq); err != nil {
			return nil, fmt.Errorf("wfm: %s: encode: %w", task.Name, err)
		}
		buf = append(buf, '\n')
		if len(buf) > math.MaxInt32 {
			return nil, fmt.Errorf("wfm: request payloads exceed %d bytes", math.MaxInt32)
		}
		p.off[i+1] = int32(len(buf))
		p.ins = task.AppendFileNames(p.ins, wfformat.LinkInput)
		p.insOff[i+1] = int32(len(p.ins))
		u := urls[task.Command.APIURL]
		if u == nil {
			u, err = url.Parse(task.Command.APIURL)
			if err != nil {
				return nil, fmt.Errorf("wfm: %s: %w", task.Name, err)
			}
			urls[task.Command.APIURL] = u
		}
		p.urls[i] = u
	}
	p.bodies = buf
	return p, nil
}

// body returns the task's pre-encoded WfBench request: a view into the
// arena, valid for the plan's lifetime.
func (p *invocationPlan) body(id int32) []byte { return p.bodies[p.off[id]:p.off[id+1]] }

// inputs returns the task's input file names, sorted: a view into the
// arena, read-only.
func (p *invocationPlan) inputs(id int32) []string { return p.ins[p.insOff[id]:p.insOff[id+1]] }

// request builds one attempt's POST of the task: a stack-built request
// whose only allocation is the clone WithContext makes, over a pooled
// reader of the task's arena body that also answers GetBody. The caller
// calls done on the returned body once Client.Do has returned.
func (p *invocationPlan) request(ctx context.Context, id int32) (*http.Request, *arenaBody) {
	body := newArenaBody(p.body(id), 2)
	return (&http.Request{
		Method:        http.MethodPost,
		URL:           p.urls[id],
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        sharedJSONHeader,
		Body:          body,
		GetBody:       body.replay,
		ContentLength: int64(len(body.src)),
	}).WithContext(ctx), body
}

func (p *invocationPlan) len() int { return len(p.tasks) }

// arenaBody streams one task's pre-encoded body out of the plan's
// payload arena. The bytes themselves are never recycled — the arena
// lives for the whole run, which is what makes re-reads for retries and
// GetBody replays safe — only the reader object is pooled, with the
// GetBody closure bound to it once, so neither costs an allocation per
// attempt or per task. A reader goes back to the pool when its last
// holder lets go. The transport is one: it may close the body
// asynchronously after Client.Do returns (a server can respond before
// draining the upload — see TestPooledBufferSurvivesEarlyResponse), and
// recycling before that Close would reset the cursor of a body still
// going out on the wire. The attempt is the other, for a request's first
// reader: until Do has returned the transport may still call GetBody (a
// redirect, a connection that died idle), which reads src. Close is
// CAS-guarded so the client's double Close on error paths counts once.
type arenaBody struct {
	r       bytes.Reader
	src     []byte
	holders atomic.Int32
	closed  atomic.Bool
	replay  func() (io.ReadCloser, error) // b.getBody, bound when b was made
}

var arenaBodies sync.Pool

// newArenaBody returns a reader over b with that many holders: two for
// the body of a request (the transport, until Close; the attempt, until
// done), one for a GetBody replay, which only the transport ever sees.
func newArenaBody(b []byte, holders int32) *arenaBody {
	ab, _ := arenaBodies.Get().(*arenaBody)
	if ab == nil {
		ab = new(arenaBody)
		ab.replay = ab.getBody
	}
	ab.closed.Store(false)
	ab.holders.Store(holders)
	ab.src = b
	ab.r.Reset(b)
	return ab
}

func (b *arenaBody) getBody() (io.ReadCloser, error) { return newArenaBody(b.src, 1), nil }

func (b *arenaBody) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *arenaBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.done()
	}
	return nil
}

// done is one holder letting go; the last one recycles the reader.
func (b *arenaBody) done() {
	if b.holders.Add(-1) == 0 {
		b.src = nil
		b.r.Reset(nil)
		arenaBodies.Put(b)
	}
}

// batchFrames is the framing of one batch request body: hdr holds the
// count prefix and then every frame header back to back, cuts[i] is where
// frame i's header ends. The payloads stay in the plan's body arena — the
// pre-encoded JSON is neither re-encoded nor copied, for any batch size —
// and a segmentReader walks header, body, header, body.
type batchFrames struct {
	p     *invocationPlan
	ids   []int32
	hdr   []byte
	cuts  []int32
	total int64
}

// frame renders the framing of a batch of the given tasks into f.
func (f *batchFrames) frame(p *invocationPlan, ids []int32, tps []string) {
	f.p, f.ids, f.total = p, ids, 0
	f.hdr = wfbench.AppendBatchCount(make([]byte, 0, 16+8*len(ids)), len(ids))
	f.cuts = make([]int32, len(ids))
	for i, id := range ids {
		body := p.body(id)
		f.hdr = wfbench.AppendBatchItemHeader(f.hdr, tps[i], len(body))
		f.cuts[i] = int32(len(f.hdr))
		f.total += int64(len(body))
	}
	f.total += int64(len(f.hdr))
}

// segment returns the k-th of the body's 2·len(ids) segments.
func (f *batchFrames) segment(k int) []byte {
	i := k / 2
	if k%2 == 1 {
		return f.p.body(f.ids[i])
	}
	from := int32(0)
	if i > 0 {
		from = f.cuts[i-1]
	}
	return f.hdr[from:f.cuts[i]]
}

// segmentReader streams a batch's segments as one request body without
// joining them. Safe to construct repeatedly over the same frames
// (GetBody replays for redirects/retries at the transport layer).
type segmentReader struct {
	f   *batchFrames
	k   int // segment being read
	off int // bytes of it already read
}

// Read fills p across segments: one segment per call would hand
// net/http's ReadFrom fast path a ~20-byte header or a ~120-byte body at
// a time, each its own write(2) once the 64 KB write buffer has filled.
func (r *segmentReader) Read(p []byte) (n int, err error) {
	for n < len(p) && r.k < 2*len(r.f.ids) {
		seg := r.f.segment(r.k)
		c := copy(p[n:], seg[r.off:])
		n += c
		if r.off += c; r.off == len(seg) {
			r.k, r.off = r.k+1, 0
		}
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (r *segmentReader) Close() error { return nil }

// decodeBufs recycles response read buffers: the decode path drains
// each response into a pooled buffer and unmarshals in place instead
// of allocating a fresh json.Decoder (and its internal buffer) per
// invocation.
var decodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}
