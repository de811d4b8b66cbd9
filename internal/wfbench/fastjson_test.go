package wfbench

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
)

// TestMarshalResponseMatchesStdlib pins the fast encoder byte-for-byte
// against encoding/json across field shapes, omitempty combinations,
// and the float formats the wire carries.
func TestMarshalResponseMatchesStdlib(t *testing.T) {
	cases := []Response{
		{},
		{Name: "leaf_000042", OK: true, BusySeconds: 0.001, WallSeconds: 0.002, OutBytes: 1},
		{Name: "t", OK: false, Error: "wfbench: t: missing inputs [a.txt]", OutBytes: 0},
		{Name: "x", OK: true, BusySeconds: 6.1e-05, WallSeconds: 1.5e-07, OutBytes: 123456789},
		{Name: "x", OK: true, BusySeconds: 1e21, WallSeconds: 1e22, OutBytes: -7},
		{Name: "x", OK: true, BusySeconds: -0.25, WallSeconds: 3, ColdStart: true, Pod: "wfbench-5f"},
		{Name: "x", OK: true, BusySeconds: 0, WallSeconds: 123456.789, Pod: "p"},
	}
	for _, r := range cases {
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalResponse(&r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("MarshalResponse(%+v)\n got %s\nwant %s", r, got, want)
		}
	}
}

// TestMarshalResponseFallsBack covers inputs the append path cannot
// encode: escapes, HTML-sensitive bytes, non-ASCII — all must still
// match encoding/json exactly (via the fallback).
func TestMarshalResponseFallsBack(t *testing.T) {
	cases := []Response{
		{Name: `quo"te`, OK: true},
		{Name: "tab\there", OK: true},
		{Name: "a<b&c>d", OK: false, Error: "x\\y"},
		{Name: "uni\u00e9", OK: true, Pod: "p\u2028q"},
	}
	for _, r := range cases {
		want, _ := json.Marshal(&r)
		got, err := MarshalResponse(&r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("MarshalResponse(%+v)\n got %s\nwant %s", r, got, want)
		}
	}
	if got, err := MarshalResponse(nil); err != nil || string(got) != "null" {
		t.Errorf("MarshalResponse(nil) = %s, %v", got, err)
	}
}

// TestAppendRequestMatchesStdlib pins the request encoder byte-for-byte
// against encoding/json: omitempty fields, nil against empty map and
// list, key order, and the strings that must take the fallback.
func TestAppendRequestMatchesStdlib(t *testing.T) {
	cases := []Request{
		{},
		{Name: "leaf_000042", PercentCPU: 0.5, CPUWork: 0.001, Cores: 1, Out: map[string]int64{"out_leaf_000042": 1234}, Inputs: []string{"out_root"}},
		{Name: "t", PercentCPU: 1, CPUWork: 1e21, MemBytes: 1 << 30, Out: map[string]int64{}, Inputs: []string{}, Workdir: "/data/run 1"},
		{Name: "m", CPUWork: 1.5e-07, Out: map[string]int64{"z": -1, "a": 0, "m": 9, "b": 2}, Inputs: []string{"b", "a"}},
		{Name: `quo"te`, Out: map[string]int64{"a<b": 1}, Inputs: []string{"uni\u00e9", "tab\there"}, Workdir: "p&q"},
		{Name: "x", Out: map[string]int64{"k\u2028": 1, "j": 2}},
	}
	for _, r := range cases {
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRequest([]byte("prefix"), &r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Errorf("AppendRequest(%+v)\n got %s\nwant prefix%s", r, got, want)
		}
	}
	if got, err := AppendRequest(nil, nil); err != nil || string(got) != "null" {
		t.Errorf("AppendRequest(nil) = %s, %v", got, err)
	}
	if _, err := AppendRequest(nil, &Request{CPUWork: math.Inf(1)}); err == nil {
		t.Error("AppendRequest encoded an infinite cpu-work")
	}
}

// TestAppendRequestFastPathOnRecipes: the requests the manager really
// renders — every task of the seven recipes — take the append path, and
// do not merely match because they fell back to encoding/json.
func TestAppendRequestFastPathOnRecipes(t *testing.T) {
	for _, body := range recipeBodies(t) {
		var r Request
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if !plainRequest(&r) {
			t.Fatalf("request falls back to encoding/json: %s", body)
		}
		if got, err := AppendRequest(nil, &r); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("AppendRequest = %s, %v\nwant %s", got, err, body)
		}
	}
}

// TestUnmarshalRequestMatchesStdlib decodes a spread of bodies with
// both decoders and requires identical structs and identical error
// nilness.
func TestUnmarshalRequestMatchesStdlib(t *testing.T) {
	bodies := []string{
		// Canonical producer output.
		`{"name":"t1","percent-cpu":0.5,"cpu-work":0.001,"cores":1,"out":{"t1_out":1},"inputs":["root_out"]}`,
		// Omissions, empties, extremes.
		`{"name":"t2","percent-cpu":1,"cpu-work":0,"out":{},"inputs":[]}`,
		`{"name":"t3","percent-cpu":0.25,"cpu-work":12.75,"mem-bytes":67108864,"out":{"a":10,"b":20},"inputs":["x","y","z"],"workdir":"/scratch"}`,
		`{"name":"big","percent-cpu":1,"cpu-work":1e3,"out":{"o":9223372036854775807},"inputs":[]}`,
		// Whitespace tolerance.
		"{\n  \"name\": \"ws\",\n  \"percent-cpu\": 0.5,\n  \"cpu-work\": 2,\n  \"out\": { \"o\" : 1 },\n  \"inputs\": [ \"a\" , \"b\" ]\n}",
		// Unknown fields of every shape are skipped.
		`{"name":"u","extra":"s","extra2":17,"extra3":[1,"two",true],"extra4":{"k":{"n":null}},"percent-cpu":0,"cpu-work":0,"out":{},"inputs":[]}`,
		// Fallback territory: escapes, case-insensitive keys, nulls,
		// floats past the exact fast path, float into int (error).
		`{"name":"esc\"aped","percent-cpu":0,"cpu-work":0,"out":{},"inputs":[]}`,
		`{"Name":"case","percent-cpu":0.5,"cpu-work":0,"out":{},"inputs":[]}`,
		`{"name":null,"percent-cpu":0,"cpu-work":0,"out":null,"inputs":null}`,
		`{"name":"f","percent-cpu":0.1234567890123456789,"cpu-work":1e-300,"out":{},"inputs":[]}`,
		`{"name":"bad","cores":1.5,"out":{},"inputs":[]}`,
		`{"name":"neg","mem-bytes":-64,"cores":-2,"percent-cpu":0.5,"cpu-work":3,"out":{},"inputs":[]}`,
		// Broken JSON must error from both.
		`{"name":"trunc`,
		`{"name":"t"} trailing`,
		`[1,2,3]`,
		``,
	}
	for _, body := range bodies {
		var want Request
		werr := json.Unmarshal([]byte(body), &want)
		var got Request
		gerr := UnmarshalRequest([]byte(body), &got)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("%s: error mismatch: stdlib %v, fast %v", body, werr, gerr)
			continue
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", body, got, want)
		}
	}
}

// TestUnmarshalResponseMatchesStdlib mirrors the request test for the
// response payload, including round-trips of the fast encoder.
func TestUnmarshalResponseMatchesStdlib(t *testing.T) {
	bodies := []string{
		`{"name":"t1","ok":true,"busySeconds":0.001,"wallSeconds":0.002,"outBytes":1}`,
		`{"name":"t2","ok":false,"error":"wfbench: t2: missing inputs [a]","busySeconds":0,"wallSeconds":0,"outBytes":0}`,
		`{"name":"t3","ok":true,"busySeconds":6.1e-05,"wallSeconds":1.5,"outBytes":42,"coldStart":true,"pod":"wfbench-abc"}`,
		`{"ok":true}`,
		`{"name":"esc\u00e9","ok":true,"busySeconds":0,"wallSeconds":0,"outBytes":0}`,
		`{"OK":true,"NAME":"caps"}`,
		`{not json`,
		`null`,
	}
	for _, body := range bodies {
		var want Response
		werr := json.Unmarshal([]byte(body), &want)
		var got Response
		gerr := UnmarshalResponse([]byte(body), &got)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("%s: error mismatch: stdlib %v, fast %v", body, werr, gerr)
			continue
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", body, got, want)
		}
	}
	// Encoder output always decodes back to the source struct.
	src := Response{Name: "rt", OK: true, BusySeconds: 0.125, WallSeconds: 2.5e-07,
		OutBytes: 9, ColdStart: true, Pod: "p0"}
	enc, err := MarshalResponse(&src)
	if err != nil {
		t.Fatal(err)
	}
	var back Response
	if err := UnmarshalResponse(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, src) {
		t.Fatalf("round trip: got %+v, want %+v", back, src)
	}
}

// TestFastFloatExactness sweeps the wire's typical float literals
// through the fast path and requires bit-identical results with
// strconv-backed stdlib decoding.
func TestFastFloatExactness(t *testing.T) {
	lits := []string{
		"0", "1", "0.5", "0.001", "123.456", "-0.25", "1e3", "1E3",
		"6.1e-05", "2.5e+07", "9e22", "1e-22", "0.000001", "15.9999999999999",
	}
	for _, lit := range lits {
		body := []byte(`{"name":"f","ok":true,"busySeconds":` + lit + `,"wallSeconds":0,"outBytes":0}`)
		var want, got Response
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalResponse(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.BusySeconds != want.BusySeconds {
			t.Errorf("%s: fast %v != stdlib %v", lit, got.BusySeconds, want.BusySeconds)
		}
	}
}

// TestWriteResponseMatchesEncoder pins the single-task response bytes:
// what writeResponse sends is exactly what json.NewEncoder(w).Encode
// sent before the handlers moved to the hand codec — the JSON and its
// trailing newline — for plain, escaped and failed responses alike.
func TestWriteResponseMatchesEncoder(t *testing.T) {
	cases := []*Response{
		{Name: "leaf_000042", OK: true, BusySeconds: 0.001, WallSeconds: 0.002, OutBytes: 1, ColdStart: true, Pod: "wfbench-5f"},
		{Name: "t", Error: "wfbench: t: missing inputs [a.txt] <&>"},
		nil,
	}
	for _, r := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeResponse(rec, http.StatusOK, r)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("writeResponse(%+v) body = %q, want %q", r, got, want.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Errorf("Content-Length = %s, want %d", cl, want.Len())
		}
	}
}
