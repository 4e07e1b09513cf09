//! Per-layer metrics of one traced pass: counters from the program's
//! `dynprof_obs` registry, numbers the benchmark observes itself, and
//! host times from the benchmark's spans around each layer call.

use dynprof_obs::{MetricValue, Snapshot};

use crate::spans::{Recorder, Span};
use crate::workloads::Pass;

/// Per-layer metrics: `(name, unit, better)`, reported with tracing on.
/// A metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("sim.events", "count", "lower"),
    ("sim.context_switches", "count", "lower"),
    ("sim.direct_handoffs", "count", "higher"),
    ("sim.sched_fallbacks", "count", "lower"),
    ("sim.handoff_ratio", "ratio", "higher"),
    ("sim.queue_depth_hw", "count", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("mpi.messages", "count", "lower"),
    ("mpi.bytes", "bytes", "lower"),
    ("mpi.collectives", "count", "lower"),
    ("mpi.barriers", "count", "lower"),
    ("omp.forks", "count", "lower"),
    ("omp.thread_spans", "count", "lower"),
    ("image.calls", "count", "lower"),
    ("image.patches", "count", "lower"),
    ("dpcl.requests", "count", "lower"),
    ("dpcl.installs", "count", "lower"),
    ("dpcl.install_latency_p50_vns", "vns", "lower"),
    ("dpcl.create_instrument_ms", "ms", "lower"),
    ("vt.events", "count", "lower"),
    ("vt.deactivated_lookups", "count", "lower"),
    ("vt.confsyncs", "count", "lower"),
    ("vt.confsync_ms", "ms", "lower"),
    ("vt.controller_ms", "ms", "lower"),
    ("apps.build_ms", "ms", "lower"),
    ("store.write_ms", "ms", "lower"),
    ("store.write_mb_s", "MB/s", "higher"),
    ("store.bytes", "bytes", "lower"),
    ("store.chunks", "count", "lower"),
    ("store.bytes_per_event", "bytes", "lower"),
    ("store.open_us", "us", "lower"),
    ("store.peak_chunk_kb", "KiB", "lower"),
    ("query.top_ms", "ms", "lower"),
    ("query.comm_ms", "ms", "lower"),
    ("query.slice_chunks_decoded", "count", "lower"),
    ("query.slice_chunks_considered", "count", "lower"),
    ("query.slice_decode_ratio", "ratio", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
];

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| match &m.value {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(_, high) => *high as f64,
            MetricValue::Histogram(h) => h.count as f64,
        })
}

/// Median of a log₂-bucket histogram, interpolated linearly inside the
/// bucket that holds it (bucket `i` covers `[2^(i-1), 2^i)`).
fn histogram_p50(s: &Snapshot, name: &str) -> f64 {
    let Some(MetricValue::Histogram(h)) =
        s.metrics.iter().find(|m| m.name == name).map(|m| &m.value)
    else {
        return 0.0;
    };
    if h.count == 0 {
        return 0.0;
    }
    let half = h.count as f64 / 2.0;
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n as f64 >= half {
            let (lo, hi) = if i == 0 {
                (0.0, 1.0)
            } else {
                ((1u64 << (i - 1)) as f64, (1u128 << i) as f64)
            };
            let lo = lo.max(h.min as f64);
            let hi = hi.min(h.max as f64 + 1.0);
            return lo + (hi - lo) * (half - seen) / n as f64;
        }
        seen += n as f64;
    }
    h.max as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer values of one traced pass, from the `dynprof_obs` snapshot
/// taken after it, the spans of its set-up and of the pass itself.
/// `apps.build_ms` is the median of the set-up's spec builds.
/// Returns one value per [`PER_LAYER`] entry; `bench.trace_overhead` is
/// filled in across passes by the caller.
pub fn per_layer(pass: &Pass, obs: &Snapshot, setup: &[Span], spans: &[Span]) -> Vec<f64> {
    let o = &pass.observed;
    let ms = |name: &str| Recorder::total_ms(spans, name);
    let sim_events = counter(obs, "sim.events_dispatched");
    let switches = counter(obs, "sim.context_switches");
    let handoffs = counter(obs, "sim.direct_handoffs");
    let write_ms = ms("store.write");
    let store_bytes = o.store_bytes as f64;
    PER_LAYER
        .iter()
        .map(|&(name, _, _)| match name {
            "sim.events" => sim_events,
            "sim.context_switches" => switches,
            "sim.direct_handoffs" => handoffs,
            "sim.sched_fallbacks" => counter(obs, "sim.sched_fallbacks"),
            "sim.handoff_ratio" => ratio(handoffs, switches),
            "sim.queue_depth_hw" => counter(obs, "sim.queue_depth_high_water"),
            "sim.host_ns_per_event" => ratio(pass.wall_s() * 1e9, sim_events),
            "mpi.messages" | "mpi.bytes" | "mpi.collectives" | "mpi.barriers" => counter(obs, name),
            "omp.forks" => o.omp_forks as f64,
            "omp.thread_spans" => o.omp_thread_spans as f64,
            "image.calls" => o.image_calls as f64,
            "image.patches" => o.image_patches as f64,
            "dpcl.requests" => counter(obs, "dpcl.requests"),
            "dpcl.installs" => counter(obs, "dpcl.install_latency_ns"),
            "dpcl.install_latency_p50_vns" => histogram_p50(obs, "dpcl.install_latency_ns"),
            "dpcl.create_instrument_ms" => ms("dpcl.create_instrument"),
            "vt.events" | "vt.deactivated_lookups" => counter(obs, name),
            "vt.confsyncs" => o.confsyncs as f64,
            "vt.confsync_ms" => ms("vt.confsync_run"),
            "vt.controller_ms" => ms("vt.controller_run"),
            "apps.build_ms" => crate::stats::median(
                &setup
                    .iter()
                    .filter(|s| s.name == "apps.build")
                    .map(|s| s.duration_ns() as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            "store.write_ms" => write_ms,
            "store.write_mb_s" => ratio(store_bytes / 1e6, write_ms / 1e3),
            "store.bytes" => store_bytes,
            "store.chunks" => o.store_chunks as f64,
            "store.bytes_per_event" => ratio(store_bytes, o.store_events as f64),
            "store.open_us" => ms("store.open") * 1e3,
            "store.peak_chunk_kb" => o.store_peak_chunk_bytes as f64 / 1024.0,
            "query.top_ms" => ms("query.top"),
            "query.comm_ms" => ms("query.comm"),
            "query.slice_chunks_decoded" => o.slice_chunks_decoded as f64,
            "query.slice_chunks_considered" => o.slice_chunks_considered as f64,
            "query.slice_decode_ratio" => ratio(
                o.slice_chunks_decoded as f64,
                o.slice_chunks_considered as f64,
            ),
            _ => 0.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit, better) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(better == "lower" || better == "higher", "{name}");
        }
    }
}
