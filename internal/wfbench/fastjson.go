package wfbench

import (
	"encoding/json"
	"slices"
	"strconv"
	"sync"

	"wfserverless/internal/fastjson"
)

// Hand-rolled encode/decode for the two flat wire structs — the one
// codec of the wire, on the single-task path (every /wfbench handler and
// the manager's POST) and inside batch frames alike. encoding/json's
// reflection machinery allocates ~20 heap objects per invocation across
// the three per-task codec calls (server request decode, server response
// encode, client response decode). The fast paths handle exactly the
// JSON this repo's own encoders produce — flat objects, escape-free
// ASCII strings — and defer to encoding/json for everything else, so
// observable behavior (error values and case-insensitive key matching
// included) is unchanged; FuzzCodecDifferential holds them to that.

// UnmarshalRequest decodes a single-task request body like
// json.Unmarshal(data, r) with a reflection-free fast path.
func UnmarshalRequest(data []byte, r *Request) error {
	orig := *r
	if fastUnmarshalRequest(fastjson.NewParser(data), r, nil, nil) {
		return nil
	}
	*r = orig
	return json.Unmarshal(data, r)
}

// Strings is the set of pod names one reader of many responses has met:
// a run sees a handful of pods, so their names are allocated that many
// times, not once a response. The zero value is ready; a nil *Strings
// copies. Safe for concurrent use.
type Strings struct {
	mu   sync.Mutex
	seen []string // scanned linearly, so bounded: maxStrings
}

const maxStrings = 64

func (s *Strings) of(raw []byte) string {
	if s == nil || len(raw) == 0 {
		return string(raw)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.seen {
		if v == string(raw) { // compares without allocating
			return v
		}
	}
	v := string(raw)
	if len(s.seen) < maxStrings {
		s.seen = append(s.seen, v)
	}
	return v
}

// UnmarshalResponse decodes a single-task response payload like
// json.Unmarshal(data, r) with a reflection-free fast path.
func UnmarshalResponse(data []byte, r *Response) error {
	return DecodeResponse(data, r, "", nil)
}

// DecodeResponse is UnmarshalResponse for the reader of a whole run's
// responses: a Name equal to name — the task's own, which the caller
// holds anyway — is that string, not a copy, and Pod comes out of pods.
func DecodeResponse(data []byte, r *Response, name string, pods *Strings) error {
	orig := *r
	if fastUnmarshalResponse(data, r, name, pods) {
		return nil
	}
	*r = orig
	return json.Unmarshal(data, r)
}

// MarshalResponse encodes r byte-identically to json.Marshal(r).
func MarshalResponse(r *Response) ([]byte, error) {
	if r == nil {
		return json.Marshal(r)
	}
	return AppendResponse(make([]byte, 0, 96+len(r.Name)+len(r.Error)+len(r.Pod)), r)
}

// AppendResponse appends r encoded byte-identically to json.Marshal(r),
// via an append fast path when every string is plain ASCII: a batch
// renders its frames with it straight into the response body.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if !fastjson.Plain(r.Name) || !fastjson.Plain(r.Error) || !fastjson.Plain(r.Pod) ||
		!fastjson.Finite(r.BusySeconds) || !fastjson.Finite(r.WallSeconds) {
		b, err := json.Marshal(r)
		return append(dst, b...), err
	}
	dst = append(dst, `{"name":"`...)
	dst = append(dst, r.Name...)
	dst = append(dst, `","ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	if r.Error != "" {
		dst = append(dst, `,"error":"`...)
		dst = append(dst, r.Error...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"busySeconds":`...)
	dst = fastjson.AppendFloat(dst, r.BusySeconds)
	dst = append(dst, `,"wallSeconds":`...)
	dst = fastjson.AppendFloat(dst, r.WallSeconds)
	dst = append(dst, `,"outBytes":`...)
	dst = strconv.AppendInt(dst, r.OutBytes, 10)
	if r.ColdStart {
		dst = append(dst, `,"coldStart":true`...)
	}
	if r.Pod != "" {
		dst = append(dst, `,"pod":"`...)
		dst = append(dst, r.Pod...)
		dst = append(dst, '"')
	}
	return append(dst, '}'), nil
}

// AppendRequest appends r encoded byte-identically to json.Marshal(r):
// the manager renders every task's request body with it, one append per
// task into one arena.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if !plainRequest(r) {
		b, err := json.Marshal(r)
		return append(dst, b...), err
	}
	dst = append(dst, `{"name":`...)
	dst = fastjson.AppendString(dst, r.Name)
	dst = append(dst, `,"percent-cpu":`...)
	dst = fastjson.AppendFloat(dst, r.PercentCPU)
	dst = append(dst, `,"cpu-work":`...)
	dst = fastjson.AppendFloat(dst, r.CPUWork)
	if r.Cores != 0 {
		dst = append(dst, `,"cores":`...)
		dst = strconv.AppendInt(dst, int64(r.Cores), 10)
	}
	if r.MemBytes != 0 {
		dst = append(dst, `,"mem-bytes":`...)
		dst = strconv.AppendInt(dst, r.MemBytes, 10)
	}
	dst = append(dst, `,"out":`...)
	if r.Out == nil {
		dst = append(dst, "null"...)
	} else {
		// encoding/json writes a map in key order. A task has a few
		// outputs: their names sort on the stack.
		var few [8]string
		keys := few[:0]
		for k := range r.Out {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = fastjson.AppendString(dst, k)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, r.Out[k], 10)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"inputs":`...)
	if r.Inputs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, in := range r.Inputs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = fastjson.AppendString(dst, in)
		}
		dst = append(dst, ']')
	}
	if r.Workdir != "" {
		dst = append(dst, `,"workdir":`...)
		dst = fastjson.AppendString(dst, r.Workdir)
	}
	return append(dst, '}'), nil
}

// plainRequest reports whether the append path encodes r as
// encoding/json would.
func plainRequest(r *Request) bool {
	if r == nil || !fastjson.Plain(r.Name) || !fastjson.Plain(r.Workdir) ||
		!fastjson.Finite(r.PercentCPU) || !fastjson.Finite(r.CPUWork) {
		return false
	}
	for k := range r.Out {
		if !fastjson.Plain(k) {
			return false
		}
	}
	for _, in := range r.Inputs {
		if !fastjson.Plain(in) {
			return false
		}
	}
	return true
}

// fastUnmarshalRequest decodes into r, whose Out must be nil on entry
// unless the caller wants encoding/json's merge (the fast path declines
// it). out and ins are containers the caller is done with — an emptied
// map, a slice — for Out and Inputs to reuse; nil makes new ones.
func fastUnmarshalRequest(p fastjson.Parser, r *Request, out map[string]int64, ins []string) bool {
	fields := func(key []byte) bool {
		ok := false
		// A switch on string(bytes) compares without allocating.
		switch string(key) {
		case "name":
			r.Name, ok = p.Str()
		case "percent-cpu":
			r.PercentCPU, ok = p.Float()
		case "cpu-work":
			r.CPUWork, ok = p.Float()
		case "cores":
			var v int64
			v, ok = p.Int()
			r.Cores = int(v)
		case "mem-bytes":
			r.MemBytes, ok = p.Int()
		case "out":
			// encoding/json merges into a map that already exists (a
			// repeated key, a reused Request); leave that to it.
			switch {
			case p.Null():
				clear(out)
				r.Out, ok = nil, true
			case r.Out == nil:
				r.Out, ok = p.MapInt64(out)
			}
		case "inputs":
			if p.Null() {
				r.Inputs, ok = nil, true
			} else {
				r.Inputs, ok = p.StrSlice(ins)
			}
		case "workdir":
			r.Workdir, ok = p.Str()
		default:
			ok = !fastjson.FoldsTo(key, requestFields) && p.SkipValue()
		}
		return ok
	}
	return p.Object(fields) && p.End()
}

func fastUnmarshalResponse(data []byte, r *Response, name string, pods *Strings) bool {
	p := fastjson.NewParser(data)
	fields := func(key []byte) bool {
		ok := false
		switch string(key) {
		case "name":
			var raw []byte
			if raw, ok = p.RawStr(); ok && string(raw) == name {
				r.Name = name
			} else {
				r.Name = string(raw)
			}
		case "ok":
			r.OK, ok = p.Bool()
		case "error":
			r.Error, ok = p.Str()
		case "busySeconds":
			r.BusySeconds, ok = p.Float()
		case "wallSeconds":
			r.WallSeconds, ok = p.Float()
		case "outBytes":
			r.OutBytes, ok = p.Int()
		case "coldStart":
			r.ColdStart, ok = p.Bool()
		case "pod":
			var raw []byte
			raw, ok = p.RawStr()
			r.Pod = pods.of(raw)
		default:
			ok = !fastjson.FoldsTo(key, responseFields) && p.SkipValue()
		}
		return ok
	}
	return p.Object(fields) && p.End()
}

var (
	requestFields  = []string{"name", "percent-cpu", "cpu-work", "cores", "mem-bytes", "out", "inputs", "workdir"}
	responseFields = []string{"name", "ok", "error", "busySeconds", "wallSeconds", "outBytes", "coldStart", "pod"}
)
