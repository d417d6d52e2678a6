//! Spans around the calls into each layer, recorded from the benchmark's
//! own files (the product code carries no spans yet).
//!
//! A span is `(layer, start, end, parent, query)`. The reference walker
//! (`walker.rs`) and the workload drivers open one *query* span per query
//! and one child span around every call into a layer; children never
//! nest, so a layer's **self time** is the sum of its spans and a query's
//! self time (the part of its interval no child covers) is what the
//! report calls *unattributed*.
//!
//! Code under measurement is generic over [`Probe`]: with [`Off`] every
//! hook is a no-op the compiler removes, which is how the same walker
//! gives the untraced wall that `trace.overhead_frac` is measured
//! against. With [`Tracer`] every span is folded into per-layer totals;
//! the first [`Tracer::with_span_budget`] spans are also kept verbatim
//! for the `--out` file (all of them would be ~10⁷ per run).

use std::time::Instant;

use fastmatch_store::backend::PageOrigin;

use crate::json::Value;

/// The repo's layers, as the trace attributes time to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    CoreAccumulate,
    CoreMerge,
    CoreStatsRound,
    StoreRead,
    StoreBitmap,
    EngineExec,
    EngineService,
    LiveSnapshot,
    LiveAppend,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::CoreAccumulate,
        Layer::CoreMerge,
        Layer::CoreStatsRound,
        Layer::StoreRead,
        Layer::StoreBitmap,
        Layer::EngineExec,
        Layer::EngineService,
        Layer::LiveSnapshot,
        Layer::LiveAppend,
    ];

    /// The suffix used in `trace.self_ms.<layer>` / `trace.share.<layer>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::CoreAccumulate => "core.accumulate",
            Layer::CoreMerge => "core.merge",
            Layer::CoreStatsRound => "core.stats_round",
            Layer::StoreRead => "store.read",
            Layer::StoreBitmap => "store.bitmap",
            Layer::EngineExec => "engine.exec",
            Layer::EngineService => "engine.service",
            Layer::LiveSnapshot => "store.live.snapshot",
            Layer::LiveAppend => "store.live.append",
        }
    }
}

/// Where a block-pair read was served from, coarsened to the slower of
/// its two pages (a pair with one miss costs a miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOrigin {
    Memory,
    CacheHit,
    PrefetchedHit,
    Miss,
}

impl ReadOrigin {
    pub fn of(pages: [PageOrigin; 2]) -> ReadOrigin {
        let rank = |o: PageOrigin| match o {
            PageOrigin::Memory => ReadOrigin::Memory,
            PageOrigin::CacheHit => ReadOrigin::CacheHit,
            PageOrigin::PrefetchedHit => ReadOrigin::PrefetchedHit,
            PageOrigin::CacheMiss => ReadOrigin::Miss,
        };
        let (a, b) = (rank(pages[0]), rank(pages[1]));
        if a as usize >= b as usize {
            a
        } else {
            b
        }
    }
}

/// Count and total duration of one kind of span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub ns: u64,
    pub count: u64,
}

impl Total {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.count += 1;
    }

    /// Mean nanoseconds per span (0 when none were recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// One recorded span, times in ns since the tracer's epoch. `layer` is
/// `None` for a query span; `parent` is the index of the enclosing
/// query span in the kept list (`u32::MAX` for query spans and for
/// spans outside any query, e.g. appends).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Option<Layer>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub query: u32,
}

/// Measurement hooks the walker and drivers call at layer boundaries.
pub trait Probe {
    /// A timestamp (`()` when tracing is off).
    type T: Copy;
    fn now(&self) -> Self::T;
    /// Records one call into `layer` that ran over `[t0, t1]`.
    fn span(&mut self, layer: Layer, t0: Self::T, t1: Self::T);
    /// A [`Layer::StoreRead`] span, additionally bucketed by origin.
    fn read(&mut self, origin: [PageOrigin; 2], t0: Self::T, t1: Self::T);
    /// A [`Layer::CoreStatsRound`] span, additionally kept as a sample.
    fn stats_round(&mut self, t0: Self::T, t1: Self::T);
}

/// Tracing disabled: every hook compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Off;

impl Probe for Off {
    type T = ();
    #[inline(always)]
    fn now(&self) {}
    #[inline(always)]
    fn span(&mut self, _: Layer, _: (), _: ()) {}
    #[inline(always)]
    fn read(&mut self, _: [PageOrigin; 2], _: (), _: ()) {}
    #[inline(always)]
    fn stats_round(&mut self, _: (), _: ()) {}
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    layers: [Total; Layer::ALL.len()],
    reads: [Total; 4],
    /// Duration of every stats round, ms.
    pub round_ms: Vec<f64>,
    /// Query spans: count and summed duration.
    pub queries: Total,
    spans: Vec<Span>,
    span_budget: usize,
    /// Index of the open query span in `spans`, if it was kept.
    open_parent: u32,
    open_query: u32,
}

impl Tracer {
    /// A tracer whose span times count from `epoch` (share one epoch
    /// between the tracers of cooperating threads).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            layers: Default::default(),
            reads: Default::default(),
            round_ms: Vec::new(),
            queries: Total::default(),
            spans: Vec::new(),
            span_budget: 0,
            open_parent: u32::MAX,
            open_query: 0,
        }
    }

    /// Keeps the first `n` spans verbatim (in addition to the totals).
    pub fn with_span_budget(mut self, n: usize) -> Tracer {
        self.span_budget = n;
        self.spans.reserve(n);
        self
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn keep(&mut self, layer: Option<Layer>, t0: Instant, t1: Instant) {
        if self.spans.len() < self.span_budget {
            self.spans.push(Span {
                layer,
                start_ns: self.ns(t0),
                end_ns: self.ns(t1),
                parent: if layer.is_some() {
                    self.open_parent
                } else {
                    u32::MAX
                },
                query: self.open_query,
            });
        }
    }

    /// Opens the query span of query number `query`.
    pub fn begin_query(&mut self, query: u32) -> Instant {
        self.open_query = query;
        let t0 = Instant::now();
        // Reserve the parent slot now so children can point at it; its
        // end is patched in `end_query`.
        self.open_parent = if self.spans.len() < self.span_budget {
            self.keep(None, t0, t0);
            (self.spans.len() - 1) as u32
        } else {
            u32::MAX
        };
        t0
    }

    /// Closes the query span opened at `t0`; returns its duration in ms.
    pub fn end_query(&mut self, t0: Instant) -> f64 {
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.queries.add(ns);
        if self.open_parent != u32::MAX {
            self.spans[self.open_parent as usize].end_ns = self.ns(t1);
        }
        self.open_parent = u32::MAX;
        ns as f64 / 1e6
    }

    pub fn layer(&self, layer: Layer) -> Total {
        self.layers[layer as usize]
    }

    pub fn reads(&self, origin: ReadOrigin) -> Total {
        self.reads[origin as usize]
    }

    /// Folds another thread's totals (and kept spans) into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        for (mine, theirs) in self.layers.iter_mut().zip(other.layers) {
            mine.ns += theirs.ns;
            mine.count += theirs.count;
        }
        for (mine, theirs) in self.reads.iter_mut().zip(other.reads) {
            mine.ns += theirs.ns;
            mine.count += theirs.count;
        }
        self.round_ms.extend(other.round_ms);
        self.queries.ns += other.queries.ns;
        self.queries.count += other.queries.count;
        // Parent indexes are relative to the owning tracer's list.
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != u32::MAX {
                s.parent += base;
            }
            s
        }));
    }

    /// The kept spans as `[name, start_ns, end_ns, parent, query]` rows.
    pub fn spans_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Arr(vec![
                        Value::str(s.layer.map_or("query", Layer::name)),
                        Value::Num(s.start_ns as f64),
                        Value::Num(s.end_ns as f64),
                        if s.parent == u32::MAX {
                            Value::Null
                        } else {
                            Value::Num(s.parent as f64)
                        },
                        Value::Num(s.query as f64),
                    ])
                })
                .collect(),
        )
    }
}

impl Probe for Tracer {
    type T = Instant;

    #[inline]
    fn now(&self) -> Instant {
        Instant::now()
    }

    #[inline]
    fn span(&mut self, layer: Layer, t0: Instant, t1: Instant) {
        self.layers[layer as usize].add(t1.duration_since(t0).as_nanos() as u64);
        self.keep(Some(layer), t0, t1);
    }

    #[inline]
    fn read(&mut self, origin: [PageOrigin; 2], t0: Instant, t1: Instant) {
        self.reads[ReadOrigin::of(origin) as usize].add(t1.duration_since(t0).as_nanos() as u64);
        self.span(Layer::StoreRead, t0, t1);
    }

    #[inline]
    fn stats_round(&mut self, t0: Instant, t1: Instant) {
        self.round_ms
            .push(t1.duration_since(t0).as_secs_f64() * 1e3);
        self.span(Layer::CoreStatsRound, t0, t1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(epoch).with_span_budget(8);
        let q = tr.begin_query(7);
        let t0 = tr.now();
        std::thread::sleep(Duration::from_millis(2));
        let t1 = tr.now();
        tr.span(Layer::CoreAccumulate, t0, t1);
        tr.read([PageOrigin::CacheHit, PageOrigin::CacheMiss], t1, t1);
        std::thread::sleep(Duration::from_millis(1));
        tr.end_query(q);

        assert_eq!(tr.queries.count, 1);
        assert_eq!(tr.layer(Layer::CoreAccumulate).count, 1);
        assert_eq!(tr.reads(ReadOrigin::Miss).count, 1, "slower page wins");
        let covered = tr.layer(Layer::CoreAccumulate).ns;
        assert!(covered >= 2_000_000);
        assert!(
            tr.queries.ns - covered >= 1_000_000,
            "the query's self time"
        );

        // Kept spans: the query first, children pointing at it.
        let Value::Arr(rows) = tr.spans_json() else {
            panic!("spans are an array")
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].as_arr().unwrap()[0].as_str(), Some("query"));
        assert_eq!(rows[1].as_arr().unwrap()[3], Value::Num(0.0));
        assert_eq!(rows[1].as_arr().unwrap()[4], Value::Num(7.0));
    }

    #[test]
    fn budget_bounds_kept_spans_but_not_totals() {
        let mut tr = Tracer::new(Instant::now()).with_span_budget(2);
        let q = tr.begin_query(0);
        for _ in 0..5 {
            let t = tr.now();
            tr.span(Layer::CoreMerge, t, t);
        }
        tr.end_query(q);
        assert_eq!(tr.layer(Layer::CoreMerge).count, 5);
        assert_eq!(tr.spans_json().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch).with_span_budget(4);
        let q = a.begin_query(0);
        a.end_query(q);
        let mut b = Tracer::new(epoch).with_span_budget(4);
        let q = b.begin_query(1);
        let t = b.now();
        b.span(Layer::LiveAppend, t, t);
        b.end_query(q);
        a.absorb(b);
        assert_eq!(a.queries.count, 2);
        let rows = a.spans_json();
        let child = rows.as_arr().unwrap()[2].as_arr().unwrap();
        assert_eq!(child[3], Value::Num(1.0), "parent index shifted by one");
    }
}
