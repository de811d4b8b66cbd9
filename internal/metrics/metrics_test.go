package metrics

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesStats(t *testing.T) {
	s := &Series{
		Times:  []time.Duration{0, time.Second, 2 * time.Second},
		Values: []float64{1, 3, 2},
	}
	if got := s.Mean(); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := s.Max(); got != 3 {
		t.Fatalf("Max = %v", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("Min = %v", got)
	}
	// trapezoid: (1+3)/2*1 + (3+2)/2*1 = 2 + 2.5
	if got := s.Integral(); math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("Integral = %v, want 4.5", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := &Series{}
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.Integral() != 0 {
		t.Fatal("empty series stats should all be 0")
	}
}

func TestRegisterAndSampleOnce(t *testing.T) {
	s := NewSampler(time.Millisecond)
	v := 1.0
	if err := s.Register("a", func() float64 { return v }); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b", func() float64 { return 10 }); err != nil {
		t.Fatal(err)
	}
	s.SampleOnce(0)
	v = 5
	s.SampleOnce(time.Second)
	ser := s.SeriesFor("a")
	if ser.Len() != 2 || ser.Values[0] != 1 || ser.Values[1] != 5 {
		t.Fatalf("series a = %+v", ser)
	}
	if got := s.MeanOf("a"); got != 3 {
		t.Fatalf("MeanOf(a) = %v", got)
	}
	if got := s.MaxOf("b"); got != 10 {
		t.Fatalf("MaxOf(b) = %v", got)
	}
	if got := s.MeanOf("unknown"); got != 0 {
		t.Fatalf("MeanOf(unknown) = %v", got)
	}
}

func TestRegisterDuplicateKeepsSeries(t *testing.T) {
	s := NewSampler(time.Millisecond)
	s.Register("x", func() float64 { return 1 })
	s.SampleOnce(0)
	s.Register("x", func() float64 { return 2 })
	s.SampleOnce(time.Second)
	ser := s.SeriesFor("x")
	if ser.Len() != 2 || ser.Values[0] != 1 || ser.Values[1] != 2 {
		t.Fatalf("series = %+v", ser)
	}
}

func TestStartStopPolls(t *testing.T) {
	s := NewSampler(2 * time.Millisecond)
	var counter atomic.Int64
	s.Register("n", func() float64 { return float64(counter.Add(1)) })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	got := s.SeriesFor("n").Len()
	if got < 3 {
		t.Fatalf("only %d samples after 20ms at 2ms interval", got)
	}
	// Stop again is a no-op.
	s.Stop()
	if s.SeriesFor("n").Len() != got {
		t.Fatal("second Stop recorded more samples")
	}
}

func TestRegisterAfterStartRejected(t *testing.T) {
	s := NewSampler(time.Millisecond)
	s.Register("a", func() float64 { return 0 })
	s.Start()
	defer s.Stop()
	if err := s.Register("late", func() float64 { return 0 }); err == nil {
		t.Fatal("Register after Start accepted")
	}
}

func TestDefaultInterval(t *testing.T) {
	s := NewSampler(0)
	if s.interval != time.Second {
		t.Fatalf("interval = %v, want 1s default", s.interval)
	}
}

func TestQuickMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		ser := &Series{}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip non-finite inputs
			}
			// Bound magnitudes so the mean's running sum cannot
			// overflow — the property under test is ordering, not
			// extreme-value arithmetic.
			v = math.Mod(v, 1e9)
			ser.Times = append(ser.Times, time.Duration(i)*time.Second)
			ser.Values = append(ser.Values, v)
		}
		if len(vals) == 0 {
			return ser.Mean() == 0
		}
		m := ser.Mean()
		return m >= ser.Min()-1e-9 && m <= ser.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntegralNonNegativeForNonNegative(t *testing.T) {
	f := func(vals []uint16) bool {
		ser := &Series{}
		for i, v := range vals {
			ser.Times = append(ser.Times, time.Duration(i)*time.Second)
			ser.Values = append(ser.Values, float64(v))
		}
		return ser.Integral() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
