package main

// The metric registry: every metric the benchmark can print, with its unit,
// its direction and — for end-to-end metrics — the relative worsening that
// counts as a regression. BENCHMARK.json declares the subset that exists on
// every workload (the driver wants every declared metric from every run);
// the test holds the two in step.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only; 0 for layer metrics
	abs    bool    // bound is absolute, not a share of the baseline
	// declared: the metric exists and is never 0 on every workload, so
	// BENCHMARK.json declares it and the result line of a single run carries
	// it. The others are printed and written to the result file only.
	declared bool
}

// endToEnd lists what a user of the system sees, in print order. A metric
// whose op type does not occur in a workload is omitted there, never 0.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, declared: true},
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25, declared: true},
	{name: "op_p99_us", unit: "us", better: "lower", bound: 0.25, declared: true},
	{name: "get_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "get_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "put_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "put_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "range_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "range_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "msgs_per_op", unit: "count", better: "lower", bound: 0.05, declared: true},
	{name: "fail_share", unit: "share", better: "lower", bound: 0.001, abs: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, declared: true},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.10, declared: true},
}

// perLayer lists the single-layer metrics of the traced run, by layer.
var perLayer = []metricDef{
	{name: "store.get_ns", unit: "ns", better: "lower", declared: true},
	{name: "store.put_ns", unit: "ns", better: "lower", declared: true},
	{name: "store.delete_ns", unit: "ns", better: "lower", declared: true},
	{name: "store.scan_ns_per_item", unit: "ns", better: "lower", declared: true},
	{name: "store.extract_ns_per_item", unit: "ns", better: "lower", declared: true},
	{name: "core.exact_msgs", unit: "count", better: "lower", declared: true},
	{name: "core.range_msgs", unit: "count", better: "lower", declared: true},
	{name: "core.insert_msgs", unit: "count", better: "lower", declared: true},
	{name: "core.join_msgs", unit: "count", better: "lower", declared: true},
	{name: "core.leave_msgs", unit: "count", better: "lower", declared: true},
	{name: "core.exact_ns", unit: "ns", better: "lower", declared: true},
	{name: "core.insert_ns", unit: "ns", better: "lower", declared: true},
	{name: "core.join_ns", unit: "ns", better: "lower", declared: true},
	{name: "query.choose_ns", unit: "ns", better: "lower", declared: true},
	{name: "query.cache_get_ns", unit: "ns", better: "lower", declared: true},
	{name: "query.cache_hit_share", unit: "share", better: "higher"},
	{name: "query.serial_share", unit: "share", better: "lower"},
	{name: "transport.frame_ns_64", unit: "ns", better: "lower", declared: true},
	{name: "transport.frame_ns_64k", unit: "ns", better: "lower", declared: true},
	{name: "transport.allocs_per_frame", unit: "count", better: "lower", declared: true},
	{name: "transport.echo_rtt_us_64", unit: "us", better: "lower", declared: true},
	{name: "transport.echo_rtt_us_64k", unit: "us", better: "lower", declared: true},
	{name: "transport.frames_per_s_64", unit: "1/s", better: "higher", declared: true},
	{name: "p2p.direct_get_local_ns", unit: "ns", better: "lower", declared: true},
	{name: "p2p.direct_get_local_allocs", unit: "count", better: "lower", declared: true},
	{name: "p2p.queue_wait_us_mean", unit: "us", better: "lower", declared: true},
	{name: "p2p.handle_us_mean", unit: "us", better: "lower", declared: true},
	{name: "p2p.hops_p50", unit: "count", better: "lower", declared: true},
	{name: "p2p.spilled_share", unit: "share", better: "lower", declared: true},
	{name: "p2p.refused_share", unit: "share", better: "lower", declared: true},
	{name: "p2p.stale_route_share", unit: "share", better: "lower", declared: true},
	{name: "p2p.allocs_per_op", unit: "count", better: "lower", declared: true},
	{name: "p2p.cpu_us_per_op", unit: "us", better: "lower", declared: true},
	{name: "p2p.range_items_per_s", unit: "1/s", better: "higher"},
	{name: "p2p.join_ms_p50", unit: "ms", better: "lower"},
	{name: "p2p.depart_ms_p50", unit: "ms", better: "lower"},
	{name: "p2p.items_moved_per_join", unit: "count", better: "lower"},
	{name: "p2p.get_self_us", unit: "us", better: "lower"},
	{name: "p2p.wire_residual_us", unit: "us", better: "lower"},
	{name: "obs.hist_observe_ns", unit: "ns", better: "lower", declared: true},
	{name: "obs.trace_overhead_share", unit: "share", better: "lower", declared: true},
	{name: "bench.window_cv", unit: "share", better: "lower", declared: true},
	{name: "bench.span_overhead_share", unit: "share", better: "lower", declared: true},
}

// value is one measured number as reported: with its unit, the number of
// samples behind it, and where the run offers them the values of the
// sub-windows (or repeated set-ups), which -compare uses as the run's own
// spread.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int64     `json:"n"`
	Windows []float64 `json:"windows,omitempty"`
}

// metricSet keeps metrics in insertion order for printing.
type metricSet struct {
	names []string
	m     map[string]value
}

func (s *metricSet) set(name, unit string, v float64, n int64, windows ...float64) {
	if s.m == nil {
		s.m = make(map[string]value)
	}
	if _, dup := s.m[name]; !dup {
		s.names = append(s.names, name)
	}
	s.m[name] = value{Value: v, Unit: unit, N: n, Windows: windows}
}
