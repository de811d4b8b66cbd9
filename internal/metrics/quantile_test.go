package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// exactQuantile is the nearest-rank reference the estimator is judged
// against, matching Series.Percentile's convention.
func exactQuantile(vals []float64, q float64) float64 {
	s := &Series{Values: append([]float64(nil), vals...)}
	return s.Percentile(q * 100)
}

func TestP2QuantileSmallStreams(t *testing.T) {
	p := newP2Quantile(0.5)
	if got := p.Value(); got != 0 {
		t.Fatalf("empty estimator Value = %v, want 0", got)
	}
	for _, v := range []float64{5, 1, 3} {
		p.Observe(v)
	}
	if got := p.Value(); got != 3 {
		t.Fatalf("3-sample median = %v, want 3", got)
	}
	if p.Count() != 3 {
		t.Fatalf("Count = %d, want 3", p.Count())
	}
}

func TestP2QuantileAccuracy(t *testing.T) {
	cases := []struct {
		name string
		gen  func(r *rand.Rand) float64
		// tol is the accepted relative error vs the exact quantile —
		// P² converges but is an approximation.
		tol float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 }, 0.05},
		{"normal", func(r *rand.Rand) float64 { return 50 + 10*r.NormFloat64() }, 0.05},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * 20 }, 0.10},
		// Bimodal with a heavy tail — the straggler shape the health
		// plane exists for.
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Float64() < 0.9 {
				return 10 + r.Float64()
			}
			return 500 + 50*r.Float64()
		}, 0.10},
	}
	for _, tc := range cases {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			r := rand.New(rand.NewSource(42))
			p := newP2Quantile(q)
			vals := make([]float64, 20000)
			for i := range vals {
				vals[i] = tc.gen(r)
				p.Observe(vals[i])
			}
			want := exactQuantile(vals, q)
			got := p.Value()
			if want == 0 {
				continue
			}
			if rel := math.Abs(got-want) / want; rel > tc.tol {
				t.Errorf("%s p%g: estimate %.3f vs exact %.3f (rel err %.3f > %.3f)",
					tc.name, q*100, got, want, rel, tc.tol)
			}
		}
	}
}

func TestP2QuantileMonotoneStream(t *testing.T) {
	// A sorted stream is the estimator's worst case for the parabolic
	// update; the median of 1..N must still land near N/2.
	p := newP2Quantile(0.5)
	const n = 10001
	for i := 1; i <= n; i++ {
		p.Observe(float64(i))
	}
	got := p.Value()
	if math.Abs(got-n/2) > n*0.02 {
		t.Fatalf("median of 1..%d = %v, want ~%d", n, got, n/2)
	}
}

func TestP2QuantileClampsBadQ(t *testing.T) {
	for _, q := range []float64{0, 1, -3, 7} {
		p := newP2Quantile(q)
		for i := 0; i < 100; i++ {
			p.Observe(float64(i))
		}
		got := p.Value()
		if got < 30 || got > 70 {
			t.Fatalf("Init(%v) should clamp to median; Value = %v", q, got)
		}
	}
}

// newP2Quantile returns an estimator for the q-quantile.
func newP2Quantile(q float64) *P2Quantile {
	p := &P2Quantile{}
	p.Init(q)
	return p
}
