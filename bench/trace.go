package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own span recorder. Spans are taken here, around the
// calls into each layer, and never by the program's obs.Tracer (which
// stays off), so a telemetry refactor inside the program cannot move
// these numbers. Spans are held in memory and written out at exit.

// spanHeader links a serverless.handle span to the wfm.post span that
// caused it: the round-tripper sets it, the front handler reads it.
const spanHeader = "X-Bench-Span"

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"` // the bench.iteration the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by finish
}

// recorder collects spans and wire counts while on; while off every
// hook is one atomic load.
type recorder struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64
	trace  atomic.Int64 // current bench.iteration span
	run    atomic.Int64 // current wfm.run span, 0 when runs overlap (service)

	mu    sync.Mutex
	spans []span

	posts, reqBytes, respBytes atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID; end closes it. A zero ID is
// "not recording" and end ignores it.
func (r *recorder) begin() (id int64, start time.Time) {
	if !r.on.Load() {
		return 0, time.Time{}
	}
	return r.nextID.Add(1), time.Now()
}

func (r *recorder) end(id, parent int64, name string, start time.Time) {
	if id == 0 {
		return
	}
	s := span{
		ID: id, Parent: parent, Trace: r.trace.Load(), Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: time.Since(r.epoch).Nanoseconds(),
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// region times fn as a span under parent.
func (r *recorder) region(name string, parent int64, fn func()) {
	id, start := r.begin()
	fn()
	r.end(id, parent, name, start)
}

// postParent is what a wfm.post hangs under: the open wfm.run when one
// manager runs at a time, the iteration otherwise.
func (r *recorder) postParent() int64 {
	if p := r.run.Load(); p != 0 {
		return p
	}
	return r.trace.Load()
}

// tracingTransport is the http.RoundTripper handed to the program in
// Options.Client: a pass-through unless the recorder is on, when each
// request becomes a wfm.post span and is counted.
type tracingTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, start := t.rec.begin()
	if id == 0 {
		return t.base.RoundTrip(req)
	}
	// A RoundTripper must not modify the caller's request, and wfm
	// shares one header map across all of its requests.
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	res, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end(id, t.rec.postParent(), "wfm.post", start)
		return nil, err
	}
	t.rec.posts.Add(1)
	if req.ContentLength > 0 {
		t.rec.reqBytes.Add(req.ContentLength)
	}
	res.Body = &countingBody{ReadCloser: res.Body, rec: t.rec, id: id, start: start}
	return res, nil
}

// countingBody closes the wfm.post span when the caller has read the
// response: the round trip as the client sees it.
type countingBody struct {
	io.ReadCloser
	rec   *recorder
	id    int64
	start time.Time
	n     int64
	once  sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.rec.respBytes.Add(b.n)
		b.rec.end(b.id, b.rec.postParent(), "wfm.post", b.start)
	})
	return err
}

// finish computes each span's self time: its duration minus the union
// of the intervals its children cover.
func (r *recorder) finish() []span {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return spans
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := max(iv[0], at), min(iv[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// byName groups span durations and self times (nanoseconds) by name.
func byName(spans []span) (dur, self map[string][]float64) {
	dur, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start))
		self[s.Name] = append(self[s.Name], float64(s.Self))
	}
	return dur, self
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
