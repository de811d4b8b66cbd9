package metrics

import (
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log-scale latency buckets. With the
// first boundary at histFirst and doubling boundaries, 24 buckets span
// 100µs .. ~14min before the +Inf overflow — wide enough for both the
// in-process platform (sub-millisecond) and time-scaled runs (seconds).
const (
	histBuckets = 24
	histFirst   = 100e-6 // seconds
)

// Histogram is a fixed-bucket log-scale histogram of seconds, safe for
// concurrent observation: Observe is two atomic adds and a handful of
// integer ops, cheap enough for the invocation hot path. Buckets are
// cumulative only at exposition time; internally each slot counts its
// own range.
//
// The zero value is ready to use.
type Histogram struct {
	counts [histBuckets + 1]atomic.Uint64 // last slot = overflow (+Inf)
	count  atomic.Uint64
	sum    atomic.Uint64 // integer microseconds, so plain Add works
}

// histBound returns the upper boundary of bucket i in seconds.
func histBound(i int) float64 {
	return histFirst * math.Pow(2, float64(i))
}

// bucketOf maps an observation in seconds to its bucket index.
func bucketOf(seconds float64) int {
	if seconds <= histFirst {
		return 0
	}
	// ceil(log2(v/first)) without a libm call in the common path.
	i := 1
	bound := histFirst * 2
	for i < histBuckets && seconds > bound {
		bound *= 2
		i++
	}
	return i
}

// Observe records one value in seconds.
func (h *Histogram) Observe(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		return
	}
	h.counts[bucketOf(seconds)].Add(1)
	h.count.Add(1)
	// Accumulate the sum in integer microseconds: atomic, and precise
	// enough for a latency aggregate.
	h.sum.Add(uint64(seconds * 1e6))
}

// ObserveDuration records one duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / 1e6 }

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the winning bucket. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = histBound(i - 1)
			}
			hi := histBound(i)
			if i == histBuckets { // overflow bucket has no upper bound
				return lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return histBound(histBuckets - 1)
}

// WriteProm writes the histogram in Prometheus text exposition format:
// cumulative `_bucket{le="..."}` series, `_sum`, and `_count`.
func (h *Histogram) WriteProm(w io.Writer, name, help string) error {
	x := NewWriter(w)
	x.Histogram(name, help, h)
	return x.Err()
}

// Percentile returns the p-th percentile (p in [0,100]) of the recorded
// samples by nearest-rank on a sorted copy — exact, unlike the
// Histogram estimate, and appropriate for post-hoc analysis of the
// modest-length PCP-style series. Returns 0 when empty.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.Values)
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	// Nearest-rank: the smallest value with at least p% of samples at
	// or below it.
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
