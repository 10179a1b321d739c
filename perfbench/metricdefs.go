package main

// metricDef names one reported metric. count marks an exact count (or
// ratio of counts) read from the first timed run and required to repeat
// bit for bit across runs.
type metricDef struct {
	name   string
	unit   string
	better string
	count  bool
}

// endToEnd are measured with tracing off, as medians over the timed
// repetitions of one invocation.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "sim_ms_per_s", unit: "ms/s", better: "higher"},
	{name: "host_ms_per_slice.p50", unit: "ms", better: "lower"},
	{name: "host_ms_per_slice.p90", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are named <module>.<what>. self_ms and alloc_share come from
// the traced run's profiles; the rest are exact counts or untraced
// medians.
var perLayer = []metricDef{
	{name: "sim.events_per_pkt", unit: "events/pkt", better: "lower", count: true},
	{name: "sim.ns_per_event", unit: "ns/event", better: "lower"},
	{name: "sim.peak_pending", unit: "count", better: "lower", count: true},
	{name: "sim.self_ms", unit: "ms", better: "lower"},
	{name: "sim.shard.windows", unit: "count", better: "lower", count: true},
	{name: "sim.shard.imbalance", unit: "max/mean", better: "lower", count: true},
	{name: "sim.shard.self_ms", unit: "ms", better: "lower"},
	{name: "fabric.drops", unit: "count", better: "lower", count: true},
	{name: "fabric.self_ms", unit: "ms", better: "lower"},
	{name: "fabric.alloc_share", unit: "frac", better: "lower"},
	{name: "nic.pkts_per_poll", unit: "pkts/poll", better: "higher", count: true},
	{name: "nic.rx_drops", unit: "count", better: "lower", count: true},
	{name: "nic.self_ms", unit: "ms", better: "lower"},
	{name: "gro.pkts_per_seg", unit: "pkts/seg", better: "higher", count: true},
	{name: "gro.reorder_holds", unit: "count", better: "lower", count: true},
	{name: "gro.timeout_fires", unit: "count", better: "lower", count: true},
	{name: "gro.self_ms", unit: "ms", better: "lower"},
	{name: "gro.alloc_share", unit: "frac", better: "lower"},
	{name: "tcp.retransmits", unit: "count", better: "lower", count: true},
	{name: "tcp.timeouts", unit: "count", better: "lower", count: true},
	{name: "tcp.acks_per_seg", unit: "acks/seg", better: "lower", count: true},
	{name: "tcp.self_ms", unit: "ms", better: "lower"},
	{name: "tcp.alloc_share", unit: "frac", better: "lower"},
	{name: "vswitch.flowcells", unit: "count", better: "lower", count: true},
	{name: "vswitch.self_ms", unit: "ms", better: "lower"},
	{name: "workload.flows_started", unit: "count", better: "higher", count: true},
	{name: "workload.flows_finished", unit: "count", better: "higher", count: true},
	{name: "workload.self_ms", unit: "ms", better: "lower"},
	{name: "workload.alloc_share", unit: "frac", better: "lower"},
	{name: "metrics.self_ms", unit: "ms", better: "lower"},
	{name: "setup.topo_ms", unit: "ms", better: "lower"},
	{name: "setup.cluster_ms", unit: "ms", better: "lower"},
	{name: "setup.workload_ms", unit: "ms", better: "lower"},
	{name: "controller.self_ms", unit: "ms", better: "lower"},
	{name: "cluster.self_ms", unit: "ms", better: "lower"},
	{name: "topo.self_ms", unit: "ms", better: "lower"},
	{name: "runtime.allocs_per_pkt", unit: "allocs/pkt", better: "lower"},
	{name: "runtime.bytes_per_pkt", unit: "B/pkt", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower"},
	{name: "runtime.self_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "trace.attributed_frac", unit: "frac", better: "higher"},
	{name: "fail_frac", unit: "frac", better: "lower"},
}
