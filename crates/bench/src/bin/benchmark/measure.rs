//! Measurement helpers shared by the workloads: repeated set-up, the
//! end-to-end metric derivation, process-level gauges, and the mapping
//! from a [`Tracer`] to the per-layer metrics every walker user reports.

use std::time::Instant;

use crate::report::Report;
use crate::trace::{Layer, ReadOrigin, Tracer};
use crate::walker::splitmix;

/// Builds the workload's inputs `reps` times (dropping each before the
/// next, so memory is not multiplied) and returns the last build with
/// the seconds each took. `setup_s` is their median.
pub fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), times))
}

/// The seed of run `index` of query `query` in a run seeded `seed`.
pub fn run_seed(seed: u64, index: u64, query: usize) -> u64 {
    splitmix(seed ^ splitmix(index.wrapping_mul(31).wrapping_add(query as u64)))
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; assumes the Linux default of 100 clock ticks/s.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name: state is field 3.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok());
    match (ticks(fields.next()), ticks(fields.next())) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / 100.0),
        _ => Err("unexpected /proc/self/stat layout".into()),
    }
}

/// What every untraced run collects; [`EndToEnd::report`] turns it into
/// the end-to-end metrics.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every *correct* approximate query, ms.
    pub query_ms: Vec<f64>,
    /// Latency of every exact scan, ms.
    pub scan_ms: Vec<f64>,
    /// Blocks the approximate queries read / blocks scans of the same
    /// tables would have read.
    pub blocks_read: u64,
    pub blocks_total: u64,
    /// Wall seconds of the measured phase the queries ran in.
    pub wall_s: f64,
}

impl EndToEnd {
    pub fn report(self, r: &mut Report) -> Result<(), String> {
        r.median("setup_s", &self.setup_s);
        r.median("query_p50_ms", &self.query_ms);
        r.tail("query_p95_ms", &self.query_ms, 0.95);
        r.set_n(
            "queries_per_s",
            self.query_ms.len() as f64 / self.wall_s.max(f64::MIN_POSITIVE),
            self.query_ms.len(),
        );
        r.median("scan_p50_ms", &self.scan_ms);
        r.set(
            "blocks_read_frac",
            self.blocks_read as f64 / self.blocks_total.max(1) as f64,
        );
        r.set("peak_rss_mb", peak_rss_mb()?);
        Ok(())
    }
}

/// Counts the walker took at the layer boundaries, summed over the
/// traced walks.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalkCounts {
    pub tuples: u64,
    pub blocks_marked: u64,
}

/// Reports the `core.*`, `store.read.*` and `store.bitmap.*` timings of
/// the traced walks.
pub fn report_walk_layers(r: &mut Report, tracer: &Tracer, counts: WalkCounts) {
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let acc = tracer.layer(Layer::CoreAccumulate);
    r.set_n(
        "core.accumulate.ns_per_tuple",
        per(acc.ns, counts.tuples),
        acc.count as usize,
    );
    r.set("core.accumulate.tuples", counts.tuples as f64);
    let merge = tracer.layer(Layer::CoreMerge);
    r.set_n(
        "core.merge.ns_per_call",
        merge.mean_ns(),
        merge.count as usize,
    );
    r.median("core.stats_round.ms_p50", &tracer.round_ms);
    let rounds = tracer.layer(Layer::CoreStatsRound);
    r.set("core.stats_round.count", rounds.count as f64);
    r.set(
        "core.stats_round.busy_frac",
        per(rounds.ns, tracer.queries.ns),
    );
    for (name, origin) in [
        ("store.read.mem_ns_per_block", ReadOrigin::Memory),
        ("store.read.cache_hit_ns_per_block", ReadOrigin::CacheHit),
        (
            "store.read.prefetched_hit_ns_per_block",
            ReadOrigin::PrefetchedHit,
        ),
        ("store.read.miss_ns_per_block", ReadOrigin::Miss),
    ] {
        let t = tracer.reads(origin);
        r.set_n(name, t.mean_ns(), t.count as usize);
    }
    let mark = tracer.layer(Layer::StoreBitmap);
    r.set_n(
        "store.bitmap.mark_ns_per_block",
        per(mark.ns, counts.blocks_marked),
        mark.count as usize,
    );
}

/// Reports `trace.self_ms.*`, `trace.share.*`, `trace.unattributed_frac`
/// and `trace.overhead_frac`. `mean_ns[layer]` is the layer's mean self
/// time per query, `span_mean_ns` the mean of the span the shares are
/// taken of; what the layers leave uncovered is *unattributed*.
pub fn report_shares(
    r: &mut Report,
    mean_ns: [f64; Layer::ALL.len()],
    span_mean_ns: f64,
    overhead_frac: f64,
) {
    let span = span_mean_ns.max(f64::MIN_POSITIVE);
    for layer in Layer::ALL {
        let ns = mean_ns[layer as usize];
        r.set(&format!("trace.self_ms.{}", layer.name()), ns / 1e6);
        r.set(&format!("trace.share.{}", layer.name()), ns / span);
    }
    let covered: f64 = mean_ns.iter().sum();
    r.set(
        "trace.unattributed_frac",
        ((span_mean_ns - covered) / span).max(0.0),
    );
    r.set("trace.overhead_frac", overhead_frac);
}

/// Mean self time per query of every layer the tracer saw.
pub fn mean_layer_ns(tracer: &Tracer) -> [f64; Layer::ALL.len()] {
    let n = tracer.queries.count.max(1) as f64;
    let mut out = [0.0; Layer::ALL.len()];
    for layer in Layer::ALL {
        out[layer as usize] = tracer.layer(layer).ns as f64 / n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_and_keeps_the_last_build() {
        let mut built = 0;
        let (last, times) = timed_setup(3, || {
            built += 1;
            Ok(built)
        })
        .unwrap();
        assert_eq!((last, times.len()), (3, 3));
        assert!(timed_setup(2, || Err::<(), _>("no".to_string())).is_err());
    }

    #[test]
    fn proc_gauges_read_on_linux() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }

    #[test]
    fn run_seeds_differ_by_index_and_query() {
        let a = run_seed(1, 0, 0);
        assert_ne!(a, run_seed(1, 0, 1));
        assert_ne!(a, run_seed(1, 1, 0));
        assert_ne!(a, run_seed(2, 0, 0));
        assert_eq!(a, run_seed(1, 0, 0));
    }

    #[test]
    fn shares_sum_with_unattributed_to_one() {
        let mut r = Report::new("mem_table4", true);
        let mut mean = [0.0; Layer::ALL.len()];
        mean[Layer::CoreAccumulate as usize] = 600.0;
        mean[Layer::StoreRead as usize] = 300.0;
        report_shares(&mut r, mean, 1000.0, 0.2);
        let v = r.result_json().unwrap();
        let get = |name: &str| {
            v.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(|x| x.as_f64())
                .unwrap()
        };
        assert_eq!(get("trace.share.core.accumulate"), 0.6);
        assert!((get("trace.unattributed_frac") - 0.1).abs() < 1e-12);
        assert_eq!(get("trace.self_ms.store.read"), 0.0003);
    }
}
