//! The metric registry: every name the benchmark may print, with its
//! unit. `BENCHMARK.json` lists the same names (a unit test keeps the two
//! in step), and a report is complete only when it carries exactly these.
//!
//! An untraced run prints [`END_TO_END`]; a traced run prints
//! [`PER_LAYER`]. A per-layer metric whose layer a workload does not
//! exercise (say `live.*` on `mem_table4`) reads 0 there.

/// End-to-end metrics: what a user of the system sees. Measured with
/// tracing off, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("scan_p50_ms", "ms"),
    ("blocks_read_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core
    ("core.accumulate.ns_per_tuple", "ns"),
    ("core.accumulate.tuples", "count"),
    ("core.merge.ns_per_call", "ns"),
    ("core.stats_round.ms_p50", "ms"),
    ("core.stats_round.count", "count"),
    ("core.stats_round.busy_frac", "ratio"),
    ("core.samples_per_query", "count"),
    // store.io / store.file / store.bitmap
    ("store.read.mem_ns_per_block", "ns"),
    ("store.read.cache_hit_ns_per_block", "ns"),
    ("store.read.prefetched_hit_ns_per_block", "ns"),
    ("store.read.miss_ns_per_block", "ns"),
    ("store.cache.hit_rate", "ratio"),
    ("store.cache.evictions", "count"),
    ("store.cache.pressure", "count"),
    ("store.prefetch.useful_frac", "ratio"),
    ("store.prefetch.pages", "count"),
    ("store.blocks_read", "count"),
    ("store.blocks_skipped", "count"),
    ("store.bitmap.mark_ns_per_block", "ns"),
    // engine.exec
    ("exec.q.flights-q1.ms_p50", "ms"),
    ("exec.q.flights-q2.ms_p50", "ms"),
    ("exec.q.flights-q3.ms_p50", "ms"),
    ("exec.q.flights-q4.ms_p50", "ms"),
    ("exec.q.taxi-q1.ms_p50", "ms"),
    ("exec.q.taxi-q2.ms_p50", "ms"),
    ("exec.q.police-q1.ms_p50", "ms"),
    ("exec.q.police-q2.ms_p50", "ms"),
    ("exec.q.police-q3.ms_p50", "ms"),
    ("exec.sync_vs_fastmatch_ratio", "ratio"),
    ("exec.speedup_vs_scan", "ratio"),
    ("exec.exact_finish_frac", "ratio"),
    // engine.service
    ("service.quanta", "count"),
    ("service.steals", "count"),
    ("service.blocks_per_quantum", "count"),
    ("service.submit_us_p50", "us"),
    ("service.refused", "count"),
    ("service.cpu_busy_frac", "ratio"),
    ("service.load_inflation", "ratio"),
    // store.live
    ("live.append_p50_us", "us"),
    ("live.append_p99_us", "us"),
    ("live.append_ns_per_row", "ns"),
    ("live.append_stall_max_ms", "ms"),
    ("live.append_late_frac", "ratio"),
    ("live.snapshot_us_p50", "us"),
    ("live.snapshot_us_p99", "us"),
    ("live.job_build_us_p50", "us"),
    ("live.query_inflation", "ratio"),
    ("live.pinned_snapshot_bytes_peak", "bytes"),
    ("live.disk_bytes_per_user_byte", "ratio"),
    ("live.wal_syncs", "count"),
    ("live.wal_rotations", "count"),
    ("live.persisted_segments", "count"),
    ("live.coalesced_deltas", "count"),
    ("live.compactions", "count"),
    ("live.segment_files_end", "count"),
    ("live.recover_ms", "ms"),
    ("live.recovered_rows", "count"),
    ("live.seal_errors", "count"),
    ("live.wal_errors", "count"),
    ("live.compact_errors", "count"),
    // trace: mean self time per query, and its share of the query span
    ("trace.self_ms.core.accumulate", "ms"),
    ("trace.self_ms.core.merge", "ms"),
    ("trace.self_ms.core.stats_round", "ms"),
    ("trace.self_ms.store.read", "ms"),
    ("trace.self_ms.store.bitmap", "ms"),
    ("trace.self_ms.engine.exec", "ms"),
    ("trace.self_ms.engine.service", "ms"),
    ("trace.self_ms.store.live.snapshot", "ms"),
    ("trace.self_ms.store.live.append", "ms"),
    ("trace.share.core.accumulate", "ratio"),
    ("trace.share.core.merge", "ratio"),
    ("trace.share.core.stats_round", "ratio"),
    ("trace.share.store.read", "ratio"),
    ("trace.share.store.bitmap", "ratio"),
    ("trace.share.engine.exec", "ratio"),
    ("trace.share.engine.service", "ratio"),
    ("trace.share.store.live.snapshot", "ratio"),
    ("trace.share.store.live.append", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &[
    "mem_table4",
    "file_cold_table4",
    "service_warm_closed",
    "live_mixed",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Layer;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64, "{name} is too long");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16, "{unit}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_trace_layer_has_both_metrics() {
        for layer in Layer::ALL {
            for prefix in ["trace.self_ms.", "trace.share."] {
                let name = format!("{prefix}{}", layer.name());
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
            }
        }
    }
}
