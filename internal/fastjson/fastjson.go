// Package fastjson is the one hand-written JSON tokenizer of this
// repository, shared by the WfBench wire codec (internal/wfbench) and the
// workflow parser (internal/wfformat). It reads exactly the JSON this
// repository's own encoders produce — escape-free ASCII strings, plain
// numbers — and reports failure on anything else, so that a caller can
// fall back to encoding/json on the pristine input and observable
// behaviour (values, errors, case-insensitive key matching) never
// depends on which path decoded a document. The append helpers are the
// encoding mirror: they render a value byte-identically to
// encoding/json or say that they cannot.
package fastjson

import (
	"math"
	"strconv"
	"strings"
)

// Parser reads one JSON document. Every method reports success; any
// construct it does not handle (escapes, non-ASCII, malformed numbers)
// makes the caller fall back to encoding/json.
type Parser struct {
	b []byte
	i int
	s string // string(b) when the caller made one, else ""
}

// NewParser returns a Parser at the start of data.
func NewParser(data []byte) Parser { return Parser{b: data} }

// NewParserText is NewParser for a caller that holds text, string(data),
// already: Str cuts from it instead of allocating, so every string of a
// document — or of a batch of documents copied at once — costs that one
// copy, and keeps all of it alive for as long as any of them is.
func NewParserText(data []byte, text string) Parser { return Parser{b: data, s: text} }

func (p *Parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// Lit consumes the byte c if it is the next token.
func (p *Parser) Lit(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// End reports whether only white space is left: a document's outermost
// value must be followed by it.
func (p *Parser) End() bool {
	p.ws()
	return p.i == len(p.b)
}

// Object drives "{key: value, ...}" with field dispatching the value
// parse per key. Keys are handed over as raw bytes so matching them
// never allocates.
func (p *Parser) Object(field func(key []byte) bool) bool {
	if !p.Lit('{') {
		return false
	}
	if p.Lit('}') {
		return true
	}
	for {
		key, ok := p.RawStr()
		if !ok || !p.Lit(':') || !field(key) {
			return false
		}
		if p.Lit(',') {
			continue
		}
		return p.Lit('}')
	}
}

// Array drives "[value, ...]" with elem parsing each value.
func (p *Parser) Array(elem func() bool) bool {
	if !p.Lit('[') {
		return false
	}
	if p.Lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.Lit(',') {
			continue
		}
		return p.Lit(']')
	}
}

// Str parses an escape-free string: a fresh one, or a cut of the
// caller's text (NewParserText).
func (p *Parser) Str() (string, bool) {
	raw, ok := p.RawStr()
	if !ok {
		return "", false
	}
	if p.s != "" {
		end := p.i - 1 // RawStr stopped past the closing quote
		return p.s[end-len(raw) : end], true
	}
	return string(raw), true
}

// RawStr parses an escape-free ASCII string as a view into the input.
// Anything else — escapes, control characters, and non-ASCII bytes, which
// encoding/json validates as UTF-8 and case-folds in keys — falls back.
func (p *Parser) RawStr() ([]byte, bool) {
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

// Bool parses true or false.
func (p *Parser) Bool() (bool, bool) {
	p.ws()
	if p.consume("true") {
		return true, true
	}
	if p.consume("false") {
		return false, true
	}
	return false, false
}

// Null consumes the literal null if it is the next token.
func (p *Parser) Null() bool {
	p.ws()
	return p.consume("null")
}

func (p *Parser) consume(lit string) bool {
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
func (p *Parser) number() (tok []byte, integer, ok bool) {
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
func (p *Parser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// Int parses an integer literal the way encoding/json does for an
// integer field; anything fractional, exponential, or out of range falls
// back. (A number token is short, so string(tok) stays on the stack.)
func (p *Parser) Int() (int64, bool) {
	tok, integer, ok := p.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	return v, err == nil
}

// Float parses a number the way encoding/json does for a float64 field:
// strconv.ParseFloat on the token, out of range falls back.
func (p *Parser) Float() (float64, bool) {
	tok, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// StrSlice parses ["a", "b", ...] into dst[:0], a slice the caller is
// done with (nil for a new one). The result is never nil.
func (p *Parser) StrSlice(dst []string) ([]string, bool) {
	out := dst[:0]
	if out == nil {
		out = []string{}
	}
	ok := p.Array(func() bool {
		s, ok := p.Str()
		out = append(out, s)
		return ok
	})
	return out, ok
}

// MapInt64 parses {"name": n, ...} into dst, an empty map the caller is
// done with (nil for a new one). Keys are always copied, never cut from
// the caller's text: a map key outlives the document it came in.
func (p *Parser) MapInt64(dst map[string]int64) (map[string]int64, bool) {
	if dst == nil {
		dst = make(map[string]int64)
	}
	ok := p.Object(func(key []byte) bool {
		v, ok := p.Int()
		dst[string(key)] = v
		return ok
	})
	return dst, ok
}

// SkipValue steps over an unknown field's value: scalars, plus arrays
// and objects up to a shallow nesting bound.
func (p *Parser) SkipValue() bool { return p.skipValue(0) }

func (p *Parser) skipValue(depth int) bool {
	if depth > 4 {
		return false
	}
	p.ws()
	if p.i >= len(p.b) {
		return false
	}
	switch c := p.b[p.i]; {
	case c == '"':
		_, ok := p.RawStr()
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
		return p.Array(func() bool { return p.skipValue(depth + 1) })
	case c == '{':
		return p.Object(func([]byte) bool { return p.skipValue(depth + 1) })
	}
	return false
}

// FoldsTo guards an unknown-key skip: encoding/json matches struct
// fields case-insensitively, so a key that matched no field exactly
// ("NAME", "busyseconds") can still target one and must take the
// reflection path. Keys are ASCII here (RawStr), so ASCII folding is all
// of encoding/json's.
func FoldsTo(key []byte, fields []string) bool {
	for _, f := range fields {
		if strings.EqualFold(string(key), f) {
			return true
		}
	}
	return false
}

// Plain reports whether s encodes as itself: printable ASCII with no
// characters encoding/json escapes (quotes, backslashes, and the
// HTML-sensitive <, >, &).
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// Finite reports whether encoding/json can encode f at all.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// AppendFloat mirrors encoding/json's float formatting: %f unless the
// magnitude calls for an exponent, whose leading zero is trimmed.
func AppendFloat(dst []byte, f float64) []byte {
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

// AppendString appends s as a JSON string; s must be Plain.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
