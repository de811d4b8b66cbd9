package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is two shared cores that change speed
// for minutes at a time: the same sweep of recipes_http took 560 ms and
// 750 ms a quarter of an hour apart, with no steal reported, and no
// statistic taken inside a 20-second run can undo a regime that
// outlasts the run. So every run also times a fixed piece of work that
// uses nothing of the program, the host reference, before each of its
// segments, and reports its times, rates and CPU figures at reference
// host speed: each segment's are divided (rates multiplied) by a host
// factor, the readings taken just before it over their nominal value.
// The raw figures and the factors are printed beside them.
//
// The readings are taken in a short-lived child process, so that they
// share no heap, no garbage collector and no scheduler with the program
// under test. Read in the benchmark's own process, the reference's
// garbage had the collector mark the program's live heap, and a change
// that enlarged that heap slowed the reference with it: part of the
// regression was then divided out of the times.
//
// The reference work is two stdlib-only kernels: JSON round trips into
// a map (allocation, collection, reflection) and a pointer chase over
// 32 MB (memory latency). What changes with the host's regimes is the
// memory side: over seventy minutes in which the workloads' rates
// ranged over a third to a half, SHA-256 of a block that stays in cache
// ranged over a tenth, the round trips over a half and the chase over a
// third. Their shares are set so that the whole slows about as much as
// the workloads do: in those minutes the workloads slowed 0.85
// (recipes_http) to 1.2 (service_small_runs) times as much as it did.
// Against a reference that was half hashing they slowed 1.25 to 2
// times as much, and runs of one tree spread half as wide again.
//
// One reading runs the kernels twice: once on one goroutine, then once
// on each of GOMAXPROCS goroutines at the same time. The host has two
// ways of being slow. Its cores may be slow while one has them: every
// pass sees that, and so does CPU time. Or one of the cores may be
// partly taken away: twelve runs of service_small_runs in a row had two
// that took 2.3 s a chunk for the others' 1.6 s with the one-goroutine
// pass unmoved, its CPU time per task unmoved too, and the all-cores
// pass at 1.75 times its usual time. So CPU time is scaled by the
// one-goroutine pass alone, and wall times, which need the cores at
// once (the workloads keep about one and a half busy), by the two
// passes together.

// refSerialMS and refParallelMS are what the two passes of one reading
// take on the reference host when it is quiet. They only fix the
// scale: a factor of 1 is that host, quiet.
const (
	refSerialMS   = 51.0
	refParallelMS = 53.0
)

type refDoc struct {
	Name   string           `json:"name"`
	Out    map[string]int64 `json:"out"`
	Inputs []string         `json:"inputs"`
	Work   float64          `json:"cpu-work"`
}

// refChain is one cycle through all of its entries (a full-period
// linear congruence over a power of two): 8 Mi of them, 32 MB, so that
// following it is one cache miss a step. Only the child process fills
// it, with 1/div of that for the tests.
var refChain []uint32

func fillRefChain(div int) {
	n := 8 << 20
	for n > (8<<20)/div {
		n /= 2
	}
	refChain = make([]uint32, n)
	for i := range refChain {
		refChain[i] = (uint32(i)*1664525 + 1013904223) & uint32(n-1)
	}
}

// refSink keeps the pointer chase from being compiled away.
var refSink atomic.Uint32

// refKernels is one pass over the reference work, 1/div of it. Passes
// that run at the same time chase from different starts.
func refKernels(div int, start uint32) {
	seen := make(map[string]int)
	for i := 0; i < 6000/div; i++ {
		in := refDoc{Name: fmt.Sprintf("task_%06d", i), Out: map[string]int64{"a": 1, "b": 2}, Inputs: []string{"x", "y", "z"}, Work: 1.5}
		b, _ := json.Marshal(&in) // cannot fail: plain fields
		var out refDoc
		json.Unmarshal(b, &out) // cannot fail: b was just marshalled
		seen[out.Name] = i
	}

	j := start
	for i := 0; i < 200_000/div; i++ {
		j = refChain[j]
	}
	refSink.Store(j)
}

// refReading is one reading of the host reference, in milliseconds.
type refReading struct {
	serial   float64 // the kernels on one goroutine
	parallel float64 // the kernels on procs goroutines at once, until the last is done
}

// readHostRef takes one reading. div shrinks the work, and the reading
// is scaled back up: the tests read a twentieth.
func readHostRef(div, procs int) refReading {
	ms := func(since time.Time) float64 {
		return float64(time.Since(since)) / float64(time.Millisecond) * float64(div)
	}
	start := time.Now()
	refKernels(div, 0)
	r := refReading{serial: ms(start)}

	var wg sync.WaitGroup
	start = time.Now()
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refKernels(div, uint32((i+1)*len(refChain)/8))
		}()
	}
	wg.Wait()
	r.parallel = ms(start)
	return r
}

// hostRefEnv marks a process as a host reference child. The value is
// "readings divisor procs".
const hostRefEnv = "BENCH_HOSTREF"

// hostRefChild is the child's whole life: one short untimed pass to
// fault its pages in and grow its heap, then the readings, one a line.
func hostRefChild(spec string) int {
	var n, div, procs int
	if _, err := fmt.Sscanf(spec, "%d %d %d", &n, &div, &procs); err != nil || n < 1 || div < 1 || procs < 1 {
		fmt.Fprintf(os.Stderr, "bench: bad %s %q\n", hostRefEnv, spec)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	fillRefChain(div)
	refKernels(4*div, 0)
	for i := 0; i < n; i++ {
		r := readHostRef(div, procs)
		fmt.Printf("%.4f %.4f\n", r.serial, r.parallel)
	}
	return 0
}

// hostRef takes n readings of the host reference in a child process and
// waits for it. The caller collects its own heap first, so that no
// collection of the program's is under way beside the child. A single
// reading scatters by a tenth and more, so a run wants thirty or so:
// the workloads with few, long segments read three times before each.
func hostRef(n, div int) ([]refReading, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d %d %d", hostRefEnv, n, div, runtime.GOMAXPROCS(0)))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	out := make([]refReading, 0, n)
	for _, line := range strings.Split(strings.TrimSpace(string(stdout)), "\n") {
		var r refReading
		if _, err := fmt.Sscanf(line, "%g %g", &r.serial, &r.parallel); err != nil {
			return nil, fmt.Errorf("host reference: line %q: %w", line, err)
		}
		out = append(out, r)
	}
	if len(out) != n {
		return nil, fmt.Errorf("host reference: %d readings, want %d", len(out), n)
	}
	return out, nil
}

// hostFactors are how much slower than the quiet reference host the
// host was while the readings were taken: wall for what needs the
// cores at once, cpu for what one core does while a thread has it.
type hostFactors struct{ wall, cpu float64 }

func factorsOf(readings []refReading) hostFactors {
	if len(readings) == 0 {
		return hostFactors{1, 1}
	}
	both := make([]float64, len(readings))
	serial := make([]float64, len(readings))
	for i, r := range readings {
		both[i] = r.serial + r.parallel
		serial[i] = r.serial
	}
	return hostFactors{
		wall: median(both) / (refSerialMS + refParallelMS),
		cpu:  median(serial) / refSerialMS,
	}
}
