// Package metrics is the telemetry substrate standing in for Performance
// Co-Pilot (PCP) in the paper's methodology: a sampler polls a set of
// named gauges at a fixed interval (the paper uses pmdumptext -t 1sec)
// and records time series for CPU, memory, and per-package power, which
// the analysis then reduces to the means plotted in Figures 4-7.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Gauge reads one instantaneous metric value.
type Gauge func() float64

// Series is a recorded time series. Times are offsets from the sampler
// start.
type Series struct {
	Times  []time.Duration
	Values []float64
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// Mean returns the arithmetic mean of the samples, 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the largest sample, 0 if empty.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := math.Inf(-1)
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest sample, 0 if empty.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, v := range s.Values {
		if v < m {
			m = v
		}
	}
	return m
}

// Integral approximates the time integral of the series (trapezoidal
// rule), in value·seconds. Integrating a power series yields energy in
// joules.
func (s *Series) Integral() float64 {
	var total float64
	for i := 1; i < len(s.Values); i++ {
		dt := s.Times[i].Seconds() - s.Times[i-1].Seconds()
		total += dt * (s.Values[i] + s.Values[i-1]) / 2
	}
	return total
}

// Sampler polls registered gauges on a fixed interval. The zero value is
// not usable; call NewSampler. Register all gauges before Start.
type Sampler struct {
	interval time.Duration

	mu      sync.Mutex
	names   []string // registration order
	gauges  map[string]Gauge
	series  map[string]*Series
	start   time.Time
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewSampler returns a sampler with the given polling interval. The
// paper samples at 1 Hz; experiments here scale the interval together
// with all other durations.
func NewSampler(interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	return &Sampler{
		interval: interval,
		gauges:   make(map[string]Gauge),
		series:   make(map[string]*Series),
	}
}

// Register adds a named gauge. Registering a duplicate name replaces the
// gauge but keeps its recorded series. Register after Start is rejected.
func (s *Sampler) Register(name string, g Gauge) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("metrics: register %q after Start", name)
	}
	if _, ok := s.gauges[name]; !ok {
		s.names = append(s.names, name)
		s.series[name] = &Series{}
	}
	s.gauges[name] = g
	return nil
}

// SampleOnce records one sample of every gauge at the given offset from
// start. It is used internally by the polling loop and directly by tests
// and by virtual-time harnesses.
func (s *Sampler) SampleOnce(at time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.names {
		v := s.gauges[n]()
		ser := s.series[n]
		ser.Times = append(ser.Times, at)
		ser.Values = append(ser.Values, v)
	}
}

// Start begins polling in a background goroutine. It records an initial
// sample immediately so short runs are never empty.
func (s *Sampler) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("metrics: sampler already started")
	}
	s.started = true
	s.start = time.Now()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done, start := s.stop, s.done, s.start
	s.mu.Unlock()

	s.SampleOnce(0)
	go func() {
		defer close(done)
		ticker := time.NewTicker(s.interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case t := <-ticker.C:
				s.SampleOnce(t.Sub(start))
			}
		}
	}()
	return nil
}

// Stop halts polling, records a final sample, and returns. Safe to call
// once after Start.
func (s *Sampler) Stop() {
	s.mu.Lock()
	if !s.started || s.stop == nil {
		s.mu.Unlock()
		return
	}
	stop := s.stop
	s.stop = nil
	s.mu.Unlock()
	close(stop)
	<-s.done
	s.SampleOnce(time.Since(s.start))
}

// SeriesFor returns the recorded series for name, or nil.
func (s *Sampler) SeriesFor(name string) *Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name]
}

// MeanOf returns the mean of a named series (0 if unknown).
func (s *Sampler) MeanOf(name string) float64 {
	if ser := s.SeriesFor(name); ser != nil {
		return ser.Mean()
	}
	return 0
}

// MaxOf returns the max of a named series (0 if unknown).
func (s *Sampler) MaxOf(name string) float64 {
	if ser := s.SeriesFor(name); ser != nil {
		return ser.Max()
	}
	return 0
}

// Standard metric names, mirroring the PCP metrics the paper samples.
const (
	MetricCPUUser     = "kernel.all.cpu.user"  // live busy cores
	MetricCPUReserved = "cpu.reserved.cores"   // provisioned cores
	MetricMemUsed     = "mem.util.used"        // live resident bytes
	MetricMemReserved = "mem.reserved.bytes"   // provisioned bytes
	MetricPower       = "denki.rapl.rate"      // total watts
	MetricPodsRunning = "platform.pods"        // live pods/containers
	MetricQueueDepth  = "platform.queue.depth" // ingress queue length
)
