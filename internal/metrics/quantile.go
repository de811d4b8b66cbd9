package metrics

import "sort"

// P2Quantile is the P² (piecewise-parabolic) online quantile estimator
// of Jain & Chlamtac (CACM 1985): five markers track the running
// q-quantile of a stream in O(1) memory and O(1) time per observation,
// with no buffering and no sorting after the first five samples. The
// health plane uses it for per-endpoint latency baselines, where an
// exact Series would grow with the run and a Histogram's log-scale
// buckets are too coarse for a k×median straggler criterion.
//
// The zero value is unusable; call Init first. Not safe
// for concurrent use — callers guard it (per-endpoint stats hold one
// short-lived mutex).
type P2Quantile struct {
	q     float64    // target quantile in (0, 1)
	n     int64      // observations seen
	h     [5]float64 // marker heights (estimates)
	pos   [5]float64 // actual marker positions, 1-based
	want  [5]float64 // desired marker positions
	dwant [5]float64 // desired-position increments per observation
}

// Init (re)initializes the estimator for the q-quantile; values outside
// (0, 1) are clamped to the median. Useful for embedding the estimator
// by value.
func (p *P2Quantile) Init(q float64) {
	if q <= 0 || q >= 1 {
		q = 0.5
	}
	*p = P2Quantile{q: q}
	p.dwant = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
}

// Count returns how many observations the estimator has absorbed.
func (p *P2Quantile) Count() int64 { return p.n }

// Observe absorbs one observation.
func (p *P2Quantile) Observe(v float64) {
	if p.n < 5 {
		p.h[p.n] = v
		p.n++
		if p.n == 5 {
			sort.Float64s(p.h[:])
			for i := 0; i < 5; i++ {
				p.pos[i] = float64(i + 1)
			}
			p.want = [5]float64{1, 1 + 2*p.q, 1 + 4*p.q, 3 + 2*p.q, 5}
		}
		return
	}
	// Find the cell the observation falls into and update the extremes.
	var k int
	switch {
	case v < p.h[0]:
		p.h[0] = v
		k = 0
	case v >= p.h[4]:
		p.h[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < p.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	p.n++
	for i := 0; i < 5; i++ {
		p.want[i] += p.dwant[i]
	}
	// Adjust the three interior markers toward their desired positions,
	// by parabolic interpolation when the neighbour ordering allows it,
	// linear otherwise.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			nh := p.parabolic(i, sign)
			if p.h[i-1] < nh && nh < p.h[i+1] {
				p.h[i] = nh
			} else {
				p.h[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

func (p *P2Quantile) parabolic(i int, d float64) float64 {
	return p.h[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.h[i+1]-p.h[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.h[i]-p.h[i-1])/(p.pos[i]-p.pos[i-1]))
}

func (p *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return p.h[i] + d*(p.h[j]-p.h[i])/(p.pos[j]-p.pos[i])
}

// Value returns the current estimate. Before five observations it
// falls back to the nearest-rank quantile of what has been seen; with
// none it returns 0.
func (p *P2Quantile) Value() float64 {
	if p.n == 0 {
		return 0
	}
	if p.n < 5 {
		buf := make([]float64, p.n)
		copy(buf, p.h[:p.n])
		sort.Float64s(buf)
		idx := int(p.q * float64(p.n))
		if idx >= len(buf) {
			idx = len(buf) - 1
		}
		return buf[idx]
	}
	return p.h[2]
}
