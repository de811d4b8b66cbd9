package wfm

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
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
// a worker checks on the drive before it invokes), the parsed endpoint
// URLs (deduplicated — a translated workflow typically points every task
// at one ingress), and an http.Request template per task carrying
// method, URL, headers, length and GetBody. The per-attempt hot path is
// then one shallow request clone plus one pooled body reader. Nothing in
// a plan changes once it is built, so runs may share one.
type invocationPlan struct {
	tasks  []*wfformat.Task // ID-aligned with the run's dag.CSR
	reqs   []*http.Request  // per-task request scaffolding, never sent directly
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
// ID-aligned task slice produced by wfformat.Workflow.Compile.
func newInvocationPlan(tasks []*wfformat.Task) (*invocationPlan, error) {
	n := len(tasks)
	p := &invocationPlan{
		tasks:  tasks,
		reqs:   make([]*http.Request, n),
		off:    make([]int32, n+1),
		insOff: make([]int32, n+1),
	}
	buf := make([]byte, 0, 256*n)
	p.ins = make([]string, 0, n) // most tasks read one file
	urls := make(map[string]*url.URL)
	// One backing array for the request structs instead of n tiny
	// allocations.
	scaffold := make([]http.Request, n)
	var wreq wfbench.Request // one for all tasks: the encoder's fallback makes it escape
	for i, task := range tasks {
		if len(task.Command.Arguments) == 0 {
			return nil, fmt.Errorf("wfm: task %q has no argument block; malformed translated workflow", task.Name)
		}
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
		scaffold[i] = http.Request{
			Method:     http.MethodPost,
			URL:        u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     sharedJSONHeader,
		}
		p.reqs[i] = &scaffold[i]
	}
	p.bodies = buf
	// ContentLength and GetBody reference the finished arena; the
	// buffer may have reallocated while growing, so fill them in a
	// second pass over the final bytes.
	for i := range tasks {
		body := p.body(int32(i))
		req := p.reqs[i]
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return newArenaBody(body), nil }
	}
	p.ext = externalInputs(tasks)
	return p, nil
}

// externalInputs renders the staging manifest — every input file no
// task produces — over the ID-aligned task slice, with both interning
// maps sized up front from the real file count. Equivalent to
// wfformat.(*Workflow).ExternalInputs, but resolved once at plan time:
// a memoized or resumed re-run must not pay a full file-manifest
// rescan (and its map rehashing) inside the execution wall when
// stageHeader fires.
func externalInputs(tasks []*wfformat.Task) []wfformat.File {
	files := 0
	for _, t := range tasks {
		files += len(t.Files)
	}
	produced := make(map[string]bool, files)
	for _, t := range tasks {
		for _, f := range t.Files {
			if f.Link == wfformat.LinkOutput {
				produced[f.Name] = true
			}
		}
	}
	seen := make(map[string]wfformat.File, len(tasks))
	for _, t := range tasks {
		for _, f := range t.Files {
			if f.Link == wfformat.LinkInput && !produced[f.Name] {
				seen[f.Name] = f
			}
		}
	}
	out := make([]wfformat.File, 0, len(seen))
	for _, f := range seen {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// body returns the task's pre-encoded WfBench request: a view into the
// arena, valid for the plan's lifetime.
func (p *invocationPlan) body(id int32) []byte { return p.bodies[p.off[id]:p.off[id+1]] }

// inputs returns the task's input file names, sorted: a view into the
// arena, read-only.
func (p *invocationPlan) inputs(id int32) []string { return p.ins[p.insOff[id]:p.insOff[id+1]] }

// request clones the task's template for one attempt. The clone shares
// the parsed URL, header map, and GetBody with the template; only the
// Body reader is per-attempt state.
func (p *invocationPlan) request(ctx context.Context, id int32) *http.Request {
	req := p.reqs[id].WithContext(ctx)
	req.Body = newArenaBody(p.body(id))
	return req
}

func (p *invocationPlan) len() int { return len(p.tasks) }

// arenaBody streams one task's pre-encoded body out of the plan's
// payload arena. The bytes themselves are never recycled — the arena
// lives for the whole run, which is what makes re-reads for retries
// and GetBody replays safe — only the reader object is pooled. Close
// is CAS-guarded so the double Close the HTTP client can issue on
// error paths recycles the reader exactly once. The transport may
// close the body asynchronously after Client.Do returns (a server can
// respond before draining the upload — see
// TestPooledBufferSurvivesEarlyResponse): only that final Close hands
// the reader back, or a concurrent invocation would reset the read
// cursor of a body still going out on the wire.
type arenaBody struct {
	r      bytes.Reader
	closed atomic.Bool
}

var arenaBodies = sync.Pool{New: func() any { return new(arenaBody) }}

func newArenaBody(b []byte) *arenaBody {
	ab := arenaBodies.Get().(*arenaBody)
	ab.closed.Store(false)
	ab.r.Reset(b)
	return ab
}

func (b *arenaBody) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *arenaBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.r.Reset(nil)
		arenaBodies.Put(b)
	}
	return nil
}

// batchFrames renders a batch request body for the given tasks as a
// segment list: the count prefix and per-frame headers go into one
// freshly-built header arena, while every payload segment aliases the
// plan's body arena — the pre-encoded JSON is neither re-encoded nor
// copied, for any batch size. Segments alternate header, body, header,
// body, ... and the first header segment carries the count prefix.
func (p *invocationPlan) batchFrames(ids []int32, tps []string) ([][]byte, int64) {
	hdr := wfbench.AppendBatchCount(make([]byte, 0, 16+48*len(ids)), len(ids))
	cuts := make([]int, len(ids))
	for i, id := range ids {
		hdr = wfbench.AppendBatchItemHeader(hdr, tps[i], len(p.body(id)))
		cuts[i] = len(hdr)
	}
	segs := make([][]byte, 0, 2*len(ids))
	prev := 0
	for i, id := range ids {
		segs = append(segs, hdr[prev:cuts[i]])
		prev = cuts[i]
		segs = append(segs, p.body(id))
	}
	var total int64
	for _, s := range segs {
		total += int64(len(s))
	}
	return segs, total
}

// segmentReader streams a segment list as one request body without
// joining the segments. Safe to construct repeatedly from the same
// segments (GetBody replays for redirects/retries at the transport
// layer).
type segmentReader struct {
	segs [][]byte
	i    int
	off  int
}

func (r *segmentReader) Read(p []byte) (int, error) {
	for r.i < len(r.segs) {
		seg := r.segs[r.i]
		if r.off >= len(seg) {
			r.i++
			r.off = 0
			continue
		}
		n := copy(p, seg[r.off:])
		r.off += n
		return n, nil
	}
	return 0, io.EOF
}

func (r *segmentReader) Close() error { return nil }

// decodeBufs recycles response read buffers: the decode path drains
// each response into a pooled buffer and unmarshals in place instead
// of allocating a fresh json.Decoder (and its internal buffer) per
// invocation.
var decodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}
