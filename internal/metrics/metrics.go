// Package metrics holds the run statistics the tools report: a series
// of observations with its mean and percentiles, P² streaming quantiles,
// and a log-scale latency histogram with Prometheus exposition. The
// figures' CPU, memory and power, which the paper samples with PCP at
// 1 Hz, are exact time integrals instead (internal/cluster's Window).
package metrics

// Series is a recorded series of observations.
type Series struct {
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
