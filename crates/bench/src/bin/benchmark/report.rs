//! One workload run's result: metric values with their sample counts,
//! the context they were measured in (seed, `nproc`, git revision, every
//! size), correctness tallies, and the raw samples for the `--out` file.

use std::path::Path;

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::summary::{Summary, Tail};

/// One reported figure.
#[derive(Debug, Clone)]
struct Figure {
    name: String,
    value: f64,
    /// Samples behind the figure, for timings and ratios of timings.
    n: Option<usize>,
    note: Option<String>,
}

/// Result of one workload run (traced or untraced).
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    /// Operations attempted / failed (errors, refusals, guarantee
    /// violations, wrong exact results, rows lost in recovery).
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    context: Vec<(String, String)>,
    figures: Vec<Figure>,
    raw: Vec<(String, Summary)>,
    pub spans: Option<Value>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Report {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            context: Vec::new(),
            figures: Vec::new(),
            raw: Vec::new(),
            spans: None,
        }
    }

    /// Records a size or setting next to the figures.
    pub fn context(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Counts one attempted operation; `ok = false` also counts it as
    /// failed and keeps `what()` (the first few) for the report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an already-counted operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.push(name, value, None, None);
    }

    /// A figure computed from `n` samples.
    pub fn set_n(&mut self, name: &str, value: f64, n: usize) {
        self.push(name, value, Some(n), None);
    }

    fn push(&mut self, name: &str, value: f64, n: Option<usize>, note: Option<String>) {
        debug_assert!(
            !self.figures.iter().any(|f| f.name == name),
            "{name} set twice"
        );
        self.figures.push(Figure {
            name: name.to_string(),
            value,
            n,
            note,
        });
    }

    /// Keeps `samples` under `raw_name` for the `--out` file and returns
    /// their summary (`None` when empty).
    pub fn keep(&mut self, raw_name: &str, samples: &[f64]) -> Option<Summary> {
        let s = Summary::of(samples)?;
        self.raw.push((raw_name.to_string(), s.clone()));
        Some(s)
    }

    /// Reports the median of `samples` as `name` (0 when there are none)
    /// and keeps the raw samples.
    pub fn median(&mut self, name: &str, samples: &[f64]) {
        match self.keep(name, samples) {
            Some(s) => self.set_n(name, s.p50(), s.n()),
            None => self.set_n(name, 0.0, 0),
        }
    }

    /// Reports the `q` tail of `samples` as `name`; when too few samples
    /// lie beyond it, the maximum is reported instead and flagged.
    pub fn tail(&mut self, name: &str, samples: &[f64], q: f64) {
        match Summary::of(samples) {
            Some(s) => {
                let (value, note) = match s.tail(q) {
                    Tail::Percentile(v) => (v, None),
                    Tail::MaxInstead(v) => (
                        v,
                        Some(format!("max: n={} cannot support p{}", s.n(), q * 100.0)),
                    ),
                };
                self.push(name, value, Some(s.n()), note);
            }
            None => self.set_n(name, 0.0, 0),
        }
    }

    /// The metrics this kind of run must print.
    fn registry(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every registered metric with its value. A per-layer metric the
    /// workload does not exercise reads 0; a missing end-to-end metric is
    /// an error, as is any non-finite value.
    fn resolved(&self) -> Result<Vec<(&'static str, &'static str, &Figure)>, String> {
        static ZERO: Figure = Figure {
            name: String::new(),
            value: 0.0,
            n: None,
            note: None,
        };
        for f in &self.figures {
            if !self.registry().iter().any(|(n, _)| *n == f.name) {
                return Err(format!("{} is not a registered metric", f.name));
            }
        }
        self.registry()
            .iter()
            .map(|&(name, unit)| {
                let fig = match self.figures.iter().find(|f| f.name == name) {
                    Some(f) => f,
                    None if self.traced => &ZERO,
                    None => return Err(format!("{name} was not measured")),
                };
                if !fig.value.is_finite() {
                    return Err(format!("{name} is not finite"));
                }
                Ok((name, unit, fig))
            })
            .collect()
    }

    /// The contract's result object.
    pub fn result_json(&self) -> Result<Value, String> {
        let metrics = self
            .resolved()?
            .into_iter()
            .map(|(name, unit, f)| {
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Num(f.value)),
                        ("unit", Value::str(unit)),
                    ]),
                )
            })
            .collect();
        Ok(Value::obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ]))
    }

    /// Prints the human-readable report: context, then one line per
    /// metric (name, value, unit, sample count).
    pub fn print(&self) -> Result<(), String> {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced {
                "traced run: per-layer metrics"
            } else {
                "tracing off: end-to-end metrics"
            }
        );
        for (k, v) in &self.context {
            println!("# {k}: {v}");
        }
        for (name, unit, f) in self.resolved()? {
            let n = f.n.map_or(String::new(), |n| format!("  (n={n})"));
            let note = f
                .note
                .as_ref()
                .map_or(String::new(), |s| format!("  [{s}]"));
            println!("{name:<44} {:>16.4} {unit}{n}{note}", f.value);
        }
        println!(
            "attempted {}  failed {}  failed_frac {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        Ok(())
    }

    /// Writes context, figures, raw samples and kept spans to `path`.
    pub fn write_out(&self, path: &Path) -> Result<(), String> {
        let doc = Value::obj(vec![
            ("workload", Value::str(self.workload)),
            ("traced", Value::Bool(self.traced)),
            (
                "context",
                Value::Obj(
                    self.context
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::str(v.clone())))
                        .collect(),
                ),
            ),
            ("result", self.result_json()?),
            (
                "sample_counts",
                Value::Obj(
                    self.figures
                        .iter()
                        .filter_map(|f| Some((f.name.clone(), Value::Num(f.n? as f64))))
                        .collect(),
                ),
            ),
            (
                "raw",
                Value::Obj(
                    self.raw
                        .iter()
                        .map(|(k, s)| (k.clone(), s.to_json()))
                        .collect(),
                ),
            ),
            ("spans", self.spans.clone().unwrap_or(Value::Null)),
            ("claim", Value::Null),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_untraced() -> Report {
        let mut r = Report::new("mem_table4", false);
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r
    }

    #[test]
    fn result_carries_exactly_the_registered_metrics() {
        let mut r = complete_untraced();
        r.check(true, String::new);
        let v = r.result_json().unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(1.0));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[0].1.get("unit").unwrap().as_str(),
            Some(END_TO_END[0].1)
        );
    }

    #[test]
    fn missing_unregistered_and_non_finite_values_are_errors() {
        let mut r = Report::new("mem_table4", false);
        r.set("setup_s", 1.0);
        assert!(r.result_json().unwrap_err().contains("was not measured"));

        let mut r = complete_untraced();
        r.set("core.merge.ns_per_call", 1.0);
        assert!(r.result_json().unwrap_err().contains("not a registered"));

        let mut r = Report::new("mem_table4", true);
        r.set("core.merge.ns_per_call", f64::NAN);
        assert!(r.result_json().unwrap_err().contains("not finite"));
    }

    #[test]
    fn traced_report_defaults_unexercised_layers_to_zero() {
        let mut r = Report::new("mem_table4", true);
        r.set("core.merge.ns_per_call", 12.0);
        let v = r.result_json().unwrap();
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().unwrap().len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .get("live.recover_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn failures_flip_correct_and_short_tails_fall_back_to_max() {
        let mut r = complete_untraced();
        r.check(false, || "boom".into());
        let v = r.result_json().unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("failed").unwrap().as_f64(), Some(1.0));

        let mut r = Report::new("mem_table4", false);
        r.tail("query_p95_ms", &[1.0, 9.0, 3.0], 0.95);
        assert_eq!(r.figures[0].value, 9.0);
        assert!(r.figures[0].note.as_ref().unwrap().contains("max"));
    }
}
