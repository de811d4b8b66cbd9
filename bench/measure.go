package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// probe is one reading of the process-wide counters the end-to-end
// metrics are differences of.
type probe struct {
	at      time.Time
	cpu     time.Duration // user + system, getrusage
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

func takeProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return probe{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// segment is one timed stretch of a run: an iteration, or for the
// service one chunk of runs. Every end-to-end figure is the median of a
// per-segment figure, each scaled by the host reference read just
// before its segment, so a slow stretch of the host moves a run's
// figures less than it would move a total over the whole section.
type segment struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcs      uint32
	pauseNs  uint64
	tasks    int64
	traced   bool
	resultMS float64     // median time to result within the segment
	host     hostFactors // from the readings taken just before it
}

// segmentBetween is the segment between two probes; its time to result
// is its wall time unless the caller sets another.
func segmentBetween(a, b probe, tasks int64, traced bool, host hostFactors) segment {
	wall := b.at.Sub(a.at)
	return segment{
		wall: wall, cpu: b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs, bytes: b.bytes - a.bytes,
		gcs: b.gcs - a.gcs, pauseNs: b.pauseNs - a.pauseNs,
		tasks: tasks, traced: traced,
		resultMS: float64(wall) / float64(time.Millisecond), host: host,
	}
}

// measurement is what a timed section yields.
type measurement struct {
	segs      []segment
	runMS     []float64    // time to result of each iteration or service run
	tracedMS  []float64    // the same, for iterations run with the recorder on
	refs      []refReading // host reference readings taken around the segments
	attempted int64
	failed    int64
	err       error // the section could not be measured: the run is void
}

func (m *measurement) add(o *measurement) {
	if m.err == nil {
		m.err = o.err
	}
	m.segs = append(m.segs, o.segs...)
	m.runMS = append(m.runMS, o.runMS...)
	m.tracedMS = append(m.tracedMS, o.tracedMS...)
	m.refs = append(m.refs, o.refs...)
	m.attempted += o.attempted
	m.failed += o.failed
}

// perSegment returns f over the untraced segments that completed work.
func (m *measurement) perSegment(f func(segment) float64) []float64 {
	var out []float64
	for _, s := range m.segs {
		if !s.traced && s.tasks > 0 {
			out = append(out, f(s))
		}
	}
	return out
}

// limit bounds a timed section by iterations when iters > 0, else by
// wall time.
type limit struct {
	d     time.Duration
	iters int
}

// minIterations is how many iterations a time-bounded section runs at
// least, so that a median exists on a host far slower than expected.
const minIterations = 3

// done reports whether a section that began at start, has made n
// iterations and spent cycle on the last one, reset and host reference
// included, is over. A time-bounded section ends when another
// iteration like the last would carry it past its time: the driver
// gives every run the same few seconds, on a slow host too.
func (l limit) done(start time.Time, n int, cycle time.Duration) bool {
	if l.iters > 0 {
		return n >= l.iters
	}
	return n >= minIterations && time.Since(start)+cycle > l.d
}

// measureIterations runs the closed loop of the three single-manager
// workloads: reset (untimed), one timed run, tally (untimed), until the
// limit. The timer is around the public calls a run makes, not
// Result.Wall, so plan compile, memo probe and journal open and close
// all count. The host reference is read readings times before each
// run, in a process of its own. With traced set the recorder is on for the section and each
// iteration is the root span of its own trace.
func measureIterations(e *env, l limit, traced bool, readings int, reset, run func(), tally func() (attempted, failed int64)) *measurement {
	rec := e.rec
	m := &measurement{}
	rec.on.Store(traced)
	defer rec.on.Store(false)
	start := time.Now()
	var cycle time.Duration
	for n := 0; !l.done(start, n, cycle); n++ {
		cycleStart := time.Now()
		reset()
		// Each iteration stands for a run in a process of its own, so
		// it starts from a collected heap: what the GC does inside the
		// timed region, and the peak it lets the heap reach, then depend
		// on the iteration alone and not on where the last one left off.
		runtime.GC()
		refs, err := hostRef(readings, e.refDiv)
		if err != nil {
			m.err = err
			return m
		}
		m.refs = append(m.refs, refs...)
		id, spanStart := rec.begin()
		if id != 0 {
			rec.trace.Store(id)
		}
		before := takeProbe()
		run()
		after := takeProbe()
		rec.end(id, 0, "bench.iteration", spanStart)
		attempted, failed := tally()
		seg := segmentBetween(before, after, attempted-failed, traced, factorsOf(refs))
		m.segs = append(m.segs, seg)
		if traced {
			m.tracedMS = append(m.tracedMS, seg.resultMS)
		} else {
			m.runMS = append(m.runMS, seg.resultMS)
		}
		m.attempted += attempted
		m.failed += failed
		cycle = time.Since(cycleStart)
	}
	return m
}

// resetPeakRSS returns the heap's free pages to the OS and resets
// VmHWM to what is resident now, so that the peak read after the timed
// section is the section's own: left alone it is set by the set-ups,
// which run the workload cold three times in this process (for
// memo_rerun nine tenths of it was the run that fills the cache). It
// reports whether the kernel took the reset; where it does not, the
// peak is that of the whole process.
func resetPeakRSS() bool {
	debug.FreeOSMemory() // collects first
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM. It is the peak of this run only because every
// workload run is its own process.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// quantile interpolates linearly between order statistics; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles matches Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadPct is the interquartile range as a percentage of the median.
func spreadPct(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return 100 * (q3 - q1) / q2
}
