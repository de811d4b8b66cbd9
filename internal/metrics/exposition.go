package metrics

import (
	"fmt"
	"io"
)

// Writer writes metric families in the Prometheus text exposition
// format. The first write error sticks: later calls write nothing, and
// Err returns it.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Writer onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (x *Writer) printf(format string, args ...any) {
	if x.err == nil {
		_, x.err = fmt.Fprintf(x.w, format, args...)
	}
}

// Family opens a family: its HELP line (none when help is empty) and
// its TYPE line. Its samples follow.
func (x *Writer) Family(name, typ, help string) {
	if help != "" {
		x.printf("# HELP %s %s\n", name, help)
	}
	x.printf("# TYPE %s %s\n", name, typ)
}

// Sample writes one sample of name with value v, printed as %v — an
// integer as %d, a float64 as %g — and an optional label set given as
// name, value pairs, each value %q-quoted.
func (x *Writer) Sample(name string, v any, labels ...string) {
	if len(labels) == 0 {
		x.printf("%s %v\n", name, v)
		return
	}
	x.printf("%s{", name)
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			x.printf(",")
		}
		x.printf("%s=%q", labels[i], labels[i+1])
	}
	x.printf("} %v\n", v)
}

// Single writes a family of one unlabelled sample.
func (x *Writer) Single(name, typ, help string, v any) {
	x.Family(name, typ, help)
	x.Sample(name, v)
}

// Histogram writes h as a histogram family: cumulative
// `_bucket{le="..."}` samples, `_sum` and `_count`.
func (x *Writer) Histogram(name, help string, h *Histogram) {
	x.Family(name, "histogram", help)
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		x.Sample(name+"_bucket", cum, "le", fmt.Sprintf("%g", histBound(i)))
	}
	cum += h.counts[histBuckets].Load()
	x.Sample(name+"_bucket", cum, "le", "+Inf")
	x.Sample(name+"_sum", h.Sum())
	x.Sample(name+"_count", h.Count())
}

// Err returns the first write error.
func (x *Writer) Err() error { return x.err }
