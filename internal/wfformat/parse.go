package wfformat

import (
	"encoding/json"
	"fmt"

	"wfserverless/internal/fastjson"
)

// Parse reads a workflow from JSON bytes. The documents this repository
// writes itself — Marshal, MarshalCompact, the translators' output —
// decode on a reflection-free path; anything else (escapes, non-ASCII,
// a repeated or case-folded key, a type mismatch) is decoded by
// encoding/json from the untouched input, so values and errors are
// encoding/json's on every document. FuzzParseDifferential holds the two
// paths to that.
//
// No string of the returned workflow aliases data: every one is a copy
// of its own, so a caller that keeps a task name keeps those few bytes
// and not the document.
func Parse(data []byte) (*Workflow, error) {
	w, ok := fastParse(data)
	if !ok {
		w = new(Workflow)
		if err := json.Unmarshal(data, w); err != nil {
			return nil, fmt.Errorf("wfformat: parse: %w", err)
		}
	}
	if w.Tasks == nil {
		w.Tasks = make(map[string]*Task)
	}
	return w, nil
}

// The JSON keys of each struct, for the case-folding guard on keys that
// match none exactly.
var (
	workflowFields = []string{"name", "description", "createdAt", "tasks"}
	taskFields     = []string{"name", "type", "command", "parents", "children", "files", "runtimeInSeconds", "cores", "id", "category", "startedAt"}
	commandFields  = []string{"program", "arguments", "api_url"}
	argumentFields = []string{"name", "percent-cpu", "cpu-work", "mem-bytes", "out", "inputs", "workdir"}
	fileFields     = []string{"link", "name", "sizeInBytes"}
)

// decoder is the state of one fast-path Parse. A workflow names each
// task and file many times over (as a key, in its argument block, in its
// neighbours' parents/children/inputs/files) and repeats a handful of
// constants on every task, so strings are interned per call; tasks,
// argument blocks, files and name lists are carved out of slabs, which
// live and die with the workflow, instead of one allocation each.
type decoder struct {
	p     fastjson.Parser
	strs  map[string]string
	chunk int // tasks per slab, from the document's size
	tasks []Task
	args  []Argument
	files []File
	names []string
}

func fastParse(data []byte) (*Workflow, bool) {
	// A compact task is 500-600 bytes, an indented one twice that.
	chunk := min(max(len(data)/512, 8), 4096)
	d := decoder{p: fastjson.NewParser(data), strs: make(map[string]string, 2*chunk), chunk: chunk}
	w := new(Workflow)
	ok := d.p.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return d.str(&w.Name)
		case "description":
			return d.str(&w.Description)
		case "createdAt":
			return d.str(&w.CreatedAt)
		case "tasks":
			return d.taskMap(w)
		}
		return d.unknown(key, workflowFields)
	}) && d.p.End()
	return w, ok
}

// A null is a no-op in every position, as in encoding/json: the
// destination is still zero, because a repeated key whose first value
// could show through the second (a list, a map, a struct) is refused.
// A repeated scalar just overwrites, there as here.

func (d *decoder) unknown(key []byte, fields []string) bool {
	return !fastjson.FoldsTo(key, fields) && d.p.SkipValue()
}

func (d *decoder) intern(raw []byte) string {
	if s, ok := d.strs[string(raw)]; ok {
		return s
	}
	s := string(raw)
	d.strs[s] = s
	return s
}

func (d *decoder) str(dst *string) bool {
	if d.p.Null() {
		return true
	}
	raw, ok := d.p.RawStr()
	if ok {
		*dst = d.intern(raw)
	}
	return ok
}

func (d *decoder) int(dst *int64) bool {
	if d.p.Null() {
		return true
	}
	v, ok := d.p.Int()
	if ok {
		*dst = v
	}
	return ok
}

func (d *decoder) float(dst *float64) bool {
	if d.p.Null() {
		return true
	}
	v, ok := d.p.Float()
	if ok {
		*dst = v
	}
	return ok
}

// slabAppend appends v to the list that starts at slab[start]. A full
// slab is left to the lists already cut from it and the list being built
// moves to a fresh one.
func slabAppend[T any](slab []T, start, chunk int, v T) ([]T, int) {
	if len(slab) == cap(slab) {
		fresh := make([]T, len(slab)-start, max(chunk, 2*(len(slab)-start)))
		copy(fresh, slab[start:])
		slab, start = fresh, 0
	}
	return append(slab, v), start
}

// cut returns the list built since start, capped so that a caller's
// append reallocates instead of writing into the next list, and never
// nil: encoding/json decodes [] to an empty slice.
func cut[T any](slab []T, start int) []T {
	if start == len(slab) {
		return []T{}
	}
	return slab[start:len(slab):len(slab)]
}

func (d *decoder) strings(dst *[]string) bool {
	if *dst != nil {
		return false
	}
	if d.p.Null() {
		return true
	}
	start := len(d.names)
	ok := d.p.Array(func() bool {
		var s string
		ok := d.str(&s)
		d.names, start = slabAppend(d.names, start, 4*d.chunk, s)
		return ok
	})
	*dst = cut(d.names, start)
	return ok
}

func (d *decoder) taskMap(w *Workflow) bool {
	if w.Tasks != nil {
		return false
	}
	if d.p.Null() {
		return true
	}
	m := make(map[string]*Task, d.chunk)
	w.Tasks, w.order = m, make([]string, 0, d.chunk)
	return d.p.Object(func(key []byte) bool {
		name := d.intern(key)
		if _, dup := m[name]; dup {
			return false
		}
		w.order = append(w.order, name)
		if d.p.Null() {
			m[name] = nil
			return true
		}
		if len(d.tasks) == cap(d.tasks) {
			d.tasks = make([]Task, 0, d.chunk)
		}
		d.tasks = d.tasks[:len(d.tasks)+1]
		t := &d.tasks[len(d.tasks)-1]
		m[name] = t
		return d.task(t)
	})
}

func (d *decoder) task(t *Task) bool {
	command := false
	return d.p.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return d.str(&t.Name)
		case "type":
			return d.str(&t.Type)
		case "command":
			if command {
				return false
			}
			command = true
			return d.p.Null() || d.command(&t.Command)
		case "parents":
			return d.strings(&t.Parents)
		case "children":
			return d.strings(&t.Children)
		case "files":
			return d.fileList(&t.Files)
		case "runtimeInSeconds":
			return d.float(&t.RuntimeInSeconds)
		case "cores":
			cores := int64(t.Cores)
			ok := d.int(&cores)
			t.Cores = int(cores)
			return ok
		case "id":
			return d.str(&t.ID)
		case "category":
			return d.str(&t.Category)
		case "startedAt":
			return d.str(&t.StartedAt)
		}
		return d.unknown(key, taskFields)
	})
}

func (d *decoder) command(c *Command) bool {
	return d.p.Object(func(key []byte) bool {
		switch string(key) {
		case "program":
			return d.str(&c.Program)
		case "arguments":
			return d.argumentList(&c.Arguments)
		case "api_url":
			return d.str(&c.APIURL)
		}
		return d.unknown(key, commandFields)
	})
}

func (d *decoder) argumentList(dst *[]Argument) bool {
	if *dst != nil {
		return false
	}
	if d.p.Null() {
		return true
	}
	start := len(d.args)
	ok := d.p.Array(func() bool {
		var a Argument
		ok := d.p.Null() || d.argument(&a)
		d.args, start = slabAppend(d.args, start, d.chunk, a)
		return ok
	})
	*dst = cut(d.args, start)
	return ok
}

func (d *decoder) argument(a *Argument) bool {
	return d.p.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return d.str(&a.Name)
		case "percent-cpu":
			return d.float(&a.PercentCPU)
		case "cpu-work":
			return d.float(&a.CPUWork)
		case "mem-bytes":
			return d.int(&a.MemBytes)
		case "out":
			return d.sizes(&a.Out)
		case "inputs":
			return d.strings(&a.Inputs)
		case "workdir":
			return d.str(&a.Workdir)
		}
		return d.unknown(key, argumentFields)
	})
}

// sizes parses an argument block's out map. A repeated file name
// overwrites, as in encoding/json, which zeroes a map element before it
// decodes into it; that is also why a null size reads as 0.
func (d *decoder) sizes(dst *map[string]int64) bool {
	if *dst != nil {
		return false
	}
	if d.p.Null() {
		return true
	}
	m := make(map[string]int64)
	*dst = m
	return d.p.Object(func(key []byte) bool {
		var v int64
		ok := d.int(&v)
		m[d.intern(key)] = v
		return ok
	})
}

func (d *decoder) fileList(dst *[]File) bool {
	if *dst != nil {
		return false
	}
	if d.p.Null() {
		return true
	}
	start := len(d.files)
	ok := d.p.Array(func() bool {
		var f File
		ok := d.p.Null() || d.p.Object(func(key []byte) bool {
			switch string(key) {
			case "link":
				return d.str(&f.Link)
			case "name":
				return d.str(&f.Name)
			case "sizeInBytes":
				return d.int(&f.SizeInBytes)
			}
			return d.unknown(key, fileFields)
		})
		d.files, start = slabAppend(d.files, start, 3*d.chunk, f)
		return ok
	})
	*dst = cut(d.files, start)
	return ok
}
