package metrics

import "testing"

func BenchmarkSeriesStats(b *testing.B) {
	ser := &Series{}
	for i := 0; i < 10000; i++ {
		ser.Values = append(ser.Values, float64(i%97))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ser.Mean()
	}
}
