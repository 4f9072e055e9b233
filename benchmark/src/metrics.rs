//! The declared metrics: the one table `run`, `layers`, `compare` and
//! `BENCHMARK.json` agree on (a test holds the file to it).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a run's samples of a metric become the run's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The best sample: the floor the system reaches when the host leaves
    /// it alone. Interference on a shared host only ever slows a slice, in
    /// phases of seconds; on identical code the medians of 15 trials spread
    /// by 17-31 % from run to run and the best of ~240 slices by 1-3 %
    /// (README, finding 7).
    Best,
    /// The median sample: for a share of ops that missed a limit, where the
    /// best slice would hide the misses, and for the set-up time, whose
    /// floor one set-up in fifty reaches.
    /// Also what a metric with one sample by construction has: a count, or
    /// a peak read once.
    Median,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may get worse.
    pub bound: f64,
    pub pick: Pick,
}

/// Every workload reports all of these, with tracing off.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, pick: Pick::Median },
    EndToEnd {
        name: "goodput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.15,
        pick: Pick::Best,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        pick: Pick::Best,
    },
    EndToEnd {
        name: "within_limit_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.01,
        pick: Pick::Median,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        pick: Pick::Median,
    },
    EndToEnd {
        name: "bottleneck_per_k",
        unit: "msgs",
        better: Better::Lower,
        bound: 0.001,
        pick: Pick::Median,
    },
    EndToEnd {
        name: "msgs_per_op",
        unit: "msgs",
        better: Better::Lower,
        bound: 0.001,
        pick: Pick::Median,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Printed with tracing on; no bounds. The first block does not depend
/// on the workload; the second is the traced run of the workload asked for.
pub const PER_LAYER: [PerLayer; 68] = [
    // core: engines driven directly, and the k=5 canonical pass.
    lower("core.engine.on_event_ns", "ns"),
    lower("core.engine.events_per_inc", "count"),
    lower("core.bottleneck_msgs", "msgs"),
    lower("core.retirements", "count"),
    // sim
    lower("sim.inc_ns", "ns"),
    higher("sim.events_s", "1/s"),
    lower("sim.build_s", "s"),
    lower("sim.audit_s", "s"),
    lower("sim.k6.inc_ns", "ns"),
    lower("sim.k6.build_s", "s"),
    lower("sim.k6.peak_rss_mib", "MiB"),
    // shm
    lower("shm.tree.inc_ns", "ns"),
    lower("shm.tree.inc_batch16_ns", "ns"),
    lower("shm.tree.shared2.inc_ns", "ns"),
    lower("shm.central.inc_ns", "ns"),
    lower("shm.combining.inc_ns", "ns"),
    // net
    lower("net.inc_us", "us"),
    // keyspace
    lower("keyspace.central.inc_key_ns", "ns"),
    lower("keyspace.tree.inc_key_ns", "ns"),
    lower("keyspace.read_key_ns", "ns"),
    lower("keyspace.keys_hosted", "count"),
    higher("keyspace.promotions", "count"),
    lower("keyspace.demotions", "count"),
    // server.wire
    lower("server.wire.encode_ns", "ns"),
    lower("server.wire.decode_ns", "ns"),
    lower("server.wire.crc32_ns_per_kib", "ns"),
    // reactor
    lower("reactor.wake_rtt_ns", "ns"),
    lower("reactor.wait_ready_ns", "ns"),
    // the ladder: p50 of one-in-flight round trips, each rung one layer more
    lower("host.loopback_rtt_us", "us"),
    lower("reactor.echo_rtt_us", "us"),
    lower("server.readiness.read_rtt_us", "us"),
    lower("server.readiness.inc_rtt_us", "us"),
    lower("server.combiner.inc_rtt_us", "us"),
    lower("server.client.inc_rtt_us", "us"),
    lower("server.readiness.hop_us", "us"),
    lower("server.session.inc_us", "us"),
    lower("server.combiner.hop_us", "us"),
    lower("server.client.overhead_us", "us"),
    // open-loop probe of the serve-sat server at half its goodput
    lower("client.open.p50_us", "us"),
    lower("client.open.p99_us", "us"),
    lower("client.open.late_share", "share"),
    // the traced run of the workload asked for
    lower("bench.gen.encode_ns", "ns"),
    lower("bench.gen.write_ns", "ns"),
    lower("bench.gen.wait_ns", "ns"),
    lower("bench.gen.read_ns", "ns"),
    lower("bench.gen.decode_ns", "ns"),
    lower("bench.gen.busy_share", "share"),
    higher("bench.gen.frames_per_read", "count"),
    higher("bench.gen.frames_per_write", "count"),
    lower("client.latency_p90_us", "us"),
    lower("client.latency_p99_us", "us"),
    lower("client.latency_max_us", "us"),
    lower("server.readiness.cpu_us_per_op", "us"),
    lower("server.combiner.cpu_us_per_op", "us"),
    lower("bench.gen.cpu_us_per_op", "us"),
    lower("server.readiness.wakeups_per_op", "count"),
    lower("server.combiner.wakeups_per_op", "count"),
    lower("server.readiness.runq_wait_share", "share"),
    lower("server.combiner.runq_wait_share", "share"),
    higher("server.combiner.mean_batch", "count"),
    lower("server.combiner.rounds_s", "1/s"),
    lower("server.shed", "count"),
    lower("server.deduped", "count"),
    lower("server.wire_errors", "count"),
    lower("server.session.count", "count"),
    lower("host.steal_share", "share"),
    lower("trace.overhead_share", "share"),
    lower("trace.overhead_spread", "share"),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}
