package serverless

import (
	"io"
	"sort"

	"wfserverless/internal/metrics"
)

// WriteMetrics emits the platform's operational counters in Prometheus
// text exposition format at GET /metrics — the monitoring surface a
// production deployment of the platform would scrape alongside PCP's
// resource samples. Monotonic series (the *_total family)
// are typed counter so rate() works on them; point-in-time series are
// gauges.
func (p *Platform) WriteMetrics(w io.Writer) error {
	st := p.Stats()
	x := metrics.NewWriter(w)
	x.Single("wfserverless_pods", "gauge", "live pods across all services", float64(st.Pods))
	x.Single("wfserverless_queue_depth", "gauge", "queued invocations", float64(st.QueueDepth))
	x.Single("wfserverless_cold_starts_total", "counter", "cumulative pod cold starts", float64(st.ColdStarts))
	x.Single("wfserverless_requests_total", "counter", "cumulative invocations", float64(st.Requests))
	x.Single("wfserverless_failures_total", "counter", "cumulative failed invocations", float64(st.Failures))
	x.Single("wfserverless_scale_stalls_total", "counter", "autoscaler ticks blocked on resources", float64(st.ScaleStalls))
	names := make([]string, 0, len(st.Services))
	for n := range st.Services {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		x.Family("wfserverless_service_pods", "gauge", "live pods per service")
		for _, n := range names {
			x.Sample("wfserverless_service_pods", st.Services[n].Pods, "service", n)
		}
		x.Family("wfserverless_service_inflight", "gauge", "in-flight invocations per service")
		for _, n := range names {
			x.Sample("wfserverless_service_inflight", st.Services[n].Inflight, "service", n)
		}
	}
	x.Histogram("wfserverless_invocation_seconds", "end-to-end invocation latency: queue wait plus execution", &p.latency)
	return x.Err()
}
