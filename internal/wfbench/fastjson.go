package wfbench

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
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
	if fastUnmarshalRequest(data, r) {
		return nil
	}
	*r = orig
	return json.Unmarshal(data, r)
}

// UnmarshalResponse decodes a single-task response payload like
// json.Unmarshal(data, r) with a reflection-free fast path.
func UnmarshalResponse(data []byte, r *Response) error {
	orig := *r
	if fastUnmarshalResponse(data, r) {
		return nil
	}
	*r = orig
	return json.Unmarshal(data, r)
}

// MarshalResponse encodes r byte-identically to json.Marshal(r), via
// an append fast path when every string is plain ASCII.
func MarshalResponse(r *Response) ([]byte, error) {
	if r == nil || !plainJSON(r.Name) || !plainJSON(r.Error) || !plainJSON(r.Pod) ||
		!finite(r.BusySeconds) || !finite(r.WallSeconds) {
		return json.Marshal(r)
	}
	dst := make([]byte, 0, 96+len(r.Name)+len(r.Error)+len(r.Pod))
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
	dst = appendJSONFloat(dst, r.BusySeconds)
	dst = append(dst, `,"wallSeconds":`...)
	dst = appendJSONFloat(dst, r.WallSeconds)
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

// plainJSON reports whether s encodes as itself: printable ASCII with
// no characters encoding/json escapes (quotes, backslashes, and the
// HTML-sensitive <, >, &).
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendJSONFloat mirrors encoding/json's float formatting: %f unless
// the magnitude calls for an exponent, whose leading zero is trimmed.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func fastUnmarshalRequest(data []byte, r *Request) bool {
	p := jparser{b: data}
	fields := func(key []byte) bool {
		ok := false
		// A switch on string(bytes) compares without allocating.
		switch string(key) {
		case "name":
			r.Name, ok = p.str()
		case "percent-cpu":
			r.PercentCPU, ok = p.float()
		case "cpu-work":
			r.CPUWork, ok = p.float()
		case "cores":
			var v int64
			v, ok = p.int()
			r.Cores = int(v)
		case "mem-bytes":
			r.MemBytes, ok = p.int()
		case "out":
			// encoding/json merges into a map that already exists (a
			// repeated key, a reused Request); leave that to it.
			if r.Out == nil {
				r.Out, ok = p.mapInt64()
			}
		case "inputs":
			r.Inputs, ok = p.strSlice()
		case "workdir":
			r.Workdir, ok = p.str()
		default:
			ok = !foldsToField(key, requestFields) && p.skipValue(0)
		}
		return ok
	}
	return p.object(fields)
}

func fastUnmarshalResponse(data []byte, r *Response) bool {
	p := jparser{b: data}
	fields := func(key []byte) bool {
		ok := false
		switch string(key) {
		case "name":
			r.Name, ok = p.str()
		case "ok":
			r.OK, ok = p.boolean()
		case "error":
			r.Error, ok = p.str()
		case "busySeconds":
			r.BusySeconds, ok = p.float()
		case "wallSeconds":
			r.WallSeconds, ok = p.float()
		case "outBytes":
			r.OutBytes, ok = p.int()
		case "coldStart":
			r.ColdStart, ok = p.boolean()
		case "pod":
			r.Pod, ok = p.str()
		default:
			ok = !foldsToField(key, responseFields) && p.skipValue(0)
		}
		return ok
	}
	return p.object(fields)
}

// foldsToField guards the unknown-key skip: encoding/json matches struct
// fields case-insensitively, so a key that matched no field exactly
// ("NAME", "busyseconds") can still target one and must take the
// reflection path. Keys are ASCII here (rawStr), so ASCII folding is all
// of encoding/json's.
func foldsToField(key []byte, fields []string) bool {
	for _, f := range fields {
		if strings.EqualFold(string(key), f) {
			return true
		}
	}
	return false
}

var (
	requestFields  = []string{"name", "percent-cpu", "cpu-work", "cores", "mem-bytes", "out", "inputs", "workdir"}
	responseFields = []string{"name", "ok", "error", "busySeconds", "wallSeconds", "outBytes", "coldStart", "pod"}
)

// jparser is a minimal JSON reader for flat wire objects. Every method
// reports success; any construct it does not handle (escapes, nulls,
// nesting beyond one level of arrays/objects) makes the caller fall
// back to encoding/json on the pristine input.
type jparser struct {
	b []byte
	i int
}

func (p *jparser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *jparser) lit(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object drives "{key: value, ...}" with field dispatching the value
// parse per key, then requires end of input. Keys are handed over as
// raw bytes so matching them never allocates.
func (p *jparser) object(field func(key []byte) bool) bool {
	if !p.lit('{') {
		return false
	}
	if !p.lit('}') {
		for {
			key, ok := p.rawStr()
			if !ok || !p.lit(':') || !field(key) {
				return false
			}
			if p.lit(',') {
				continue
			}
			if p.lit('}') {
				break
			}
			return false
		}
	}
	p.ws()
	return p.i == len(p.b)
}

// str parses an escape-free string.
func (p *jparser) str() (string, bool) {
	raw, ok := p.rawStr()
	if !ok {
		return "", false
	}
	return string(raw), true
}

// rawStr parses an escape-free ASCII string as a view into the input.
// Anything else — escapes, control characters, and non-ASCII bytes, which
// encoding/json validates as UTF-8 and case-folds in keys — falls back.
func (p *jparser) rawStr() ([]byte, bool) {
	p.ws()
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, false
	}
	p.i++
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[start:p.i]
			p.i++
			return s, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

func (p *jparser) boolean() (bool, bool) {
	p.ws()
	if p.consume("true") {
		return true, true
	}
	if p.consume("false") {
		return false, true
	}
	return false, false
}

func (p *jparser) consume(lit string) bool {
	if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// number scans one token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// is a plain integer. encoding/json rejects everything else ("01", "1.",
// ".5", "+1"), so the fast path must not accept it either.
func (p *jparser) number() (tok []byte, integer, ok bool) {
	p.ws()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	if p.i < len(p.b) && p.b[p.i] == '0' {
		p.i++
	} else if p.digits() == 0 {
		return nil, false, false
	}
	integer = true
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return p.b[start:p.i], integer, true
}

// digits steps over a run of decimal digits and returns its length.
func (p *jparser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// int parses an integer literal the way encoding/json does for an
// integer field; anything fractional, exponential, or out of range falls
// back. (A number token is short, so string(tok) stays on the stack.)
func (p *jparser) int() (int64, bool) {
	tok, integer, ok := p.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	return v, err == nil
}

// float parses a number the way encoding/json does for a float64 field:
// strconv.ParseFloat on the token, out of range falls back.
func (p *jparser) float() (float64, bool) {
	tok, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// strSlice parses ["a", "b", ...].
func (p *jparser) strSlice() ([]string, bool) {
	if !p.lit('[') {
		return nil, false
	}
	if p.lit(']') {
		return []string{}, true
	}
	var out []string
	for {
		s, ok := p.str()
		if !ok {
			return nil, false
		}
		out = append(out, s)
		if p.lit(',') {
			continue
		}
		if p.lit(']') {
			return out, true
		}
		return nil, false
	}
}

// mapInt64 parses {"name": n, ...}.
func (p *jparser) mapInt64() (map[string]int64, bool) {
	if !p.lit('{') {
		return nil, false
	}
	out := make(map[string]int64)
	if p.lit('}') {
		return out, true
	}
	for {
		k, ok := p.str()
		if !ok || !p.lit(':') {
			return nil, false
		}
		v, ok := p.int()
		if !ok {
			return nil, false
		}
		out[k] = v
		if p.lit(',') {
			continue
		}
		if p.lit('}') {
			return out, true
		}
		return nil, false
	}
}

// skipValue steps over an unknown field's value: scalars, plus arrays
// and objects up to a shallow nesting bound.
func (p *jparser) skipValue(depth int) bool {
	if depth > 4 {
		return false
	}
	p.ws()
	if p.i >= len(p.b) {
		return false
	}
	switch c := p.b[p.i]; {
	case c == '"':
		_, ok := p.rawStr()
		return ok
	case c == 't':
		return p.consume("true")
	case c == 'f':
		return p.consume("false")
	case c == 'n':
		return p.consume("null")
	case c == '-' || (c >= '0' && c <= '9'):
		_, _, ok := p.number()
		return ok
	case c == '[':
		p.i++
		if p.lit(']') {
			return true
		}
		for {
			if !p.skipValue(depth + 1) {
				return false
			}
			if p.lit(',') {
				continue
			}
			return p.lit(']')
		}
	case c == '{':
		p.i++
		if p.lit('}') {
			return true
		}
		for {
			if _, ok := p.rawStr(); !ok || !p.lit(':') || !p.skipValue(depth+1) {
				return false
			}
			if p.lit(',') {
				continue
			}
			return p.lit('}')
		}
	}
	return false
}
