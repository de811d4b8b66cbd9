package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesStats(t *testing.T) {
	s := &Series{Values: []float64{1, 3, 2}}
	if got := s.Mean(); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := &Series{}
	if s.Mean() != 0 || s.Len() != 0 {
		t.Fatal("empty series stats should all be 0")
	}
}

func TestQuickMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		ser := &Series{}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip non-finite inputs
			}
			// Bound magnitudes so the mean's running sum cannot
			// overflow — the property under test is ordering, not
			// extreme-value arithmetic.
			v = math.Mod(v, 1e9)
			ser.Values = append(ser.Values, v)
			lo, hi = min(lo, v), max(hi, v)
		}
		if len(vals) == 0 {
			return ser.Mean() == 0
		}
		m := ser.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
