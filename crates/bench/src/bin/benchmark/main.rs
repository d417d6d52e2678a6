//! The repo benchmark: four workloads, end-to-end metrics measured with
//! tracing off, and a layer-by-layer traced run. See `README.md` next to
//! this file for why each workload exists and how the metrics interact,
//! and `BENCHMARK.json` at the repo root for the contract.
//!
//! ```text
//! benchmark --workload <name>|all [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--smoke]
//! ```
//!
//! One workload per process (so `peak_rss_mb` is that workload's own);
//! `--workload all` runs each workload in a child process, untraced then
//! traced, and prints every metric. The last line of standard output is
//! one JSON object `{correct, attempted, failed, metrics}`; the exit
//! code is non-zero if anything failed. Only the public APIs of
//! `fastmatch-{core,store,data,engine}` are used, and no `FASTMATCH_*`
//! environment variable is read.

#![forbid(unsafe_code)]

mod fixture;
mod json;
mod live;
mod measure;
mod metrics;
mod report;
mod service;
mod summary;
mod table4;
mod trace;
mod walker;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::fixture::Storage;
use crate::json::Value;
use crate::report::Report;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub smoke: bool,
}

/// Every size of the benchmark in one place. `full` is what
/// `BENCHMARK.json` is measured at; `smoke` finishes in seconds and is
/// for tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows per dataset on `mem_table4`.
    pub mem_rows: usize,
    /// Rows per dataset on `file_cold_table4`: fewer, because every block
    /// costs ~20x a memory read and the run must still complete enough
    /// queries for its p95.
    pub file_rows: usize,
    /// FLIGHTS rows on `service_warm_closed`.
    pub service_rows: usize,
    /// Rows preloaded into the live table.
    pub live_preload_rows: usize,
    /// Open-loop append schedule.
    pub live_batch_rows: usize,
    pub live_rows_per_s: u64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Default `--seconds`.
    pub seconds: f64,
}

impl Scale {
    pub const fn full() -> Scale {
        Scale {
            mem_rows: 2_000_000,
            file_rows: 1_000_000,
            service_rows: 1_000_000,
            live_preload_rows: 1_000_000,
            live_batch_rows: 512,
            live_rows_per_s: 200_000,
            setup_reps: 3,
            seconds: 20.0,
        }
    }

    pub const fn smoke() -> Scale {
        Scale {
            mem_rows: 40_000,
            file_rows: 40_000,
            service_rows: 40_000,
            // Below ~10^5 rows the planted top-5 is not reliably the exact
            // top-5 of the finite sample, which is what live_mixed checks.
            live_preload_rows: 150_000,
            live_batch_rows: 512,
            live_rows_per_s: 200_000,
            setup_reps: 1,
            seconds: 0.3,
        }
    }
}

/// The seed every table is generated from. The corpus is part of a
/// workload's definition, like its size: what `--seed` draws is the
/// request stream — every query's run seed (scan start offsets, shard
/// starts) and the append feed's offset. Generating the tables from
/// `--seed` as well was tried first; the planted shapes then differ from
/// seed to seed, which moved `query_p50_ms` by 6–14 % and
/// `blocks_read_frac` by 3–12 % between seeds against 1–3 % between runs
/// of one seed, and a bound wide enough for that hides real regressions.
pub const CORPUS_SEED: u64 = 0x5eed_c0de;

const USAGE: &str =
    "usage: benchmark --workload <mem_table4|file_cold_table4|service_warm_closed|live_mixed|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 0.0,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    args.seconds = seconds.unwrap_or(scale_of(&args).seconds);
    Ok(args)
}

fn scale_of(args: &Args) -> Scale {
    if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    }
}

/// Where the checkout's HEAD points, read from `.git` when there is one
/// (the driver's checkout has none).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Runs one workload in this process.
fn run_workload(args: &Args) -> Result<Report, String> {
    let scale = scale_of(args);
    let mut r = match args.workload.as_str() {
        "mem_table4" => table4::run("mem_table4", Storage::Mem, scale.mem_rows, args, &scale),
        "file_cold_table4" => table4::run(
            "file_cold_table4",
            Storage::File {
                cache_frac: 1.0 / 16.0,
            },
            scale.file_rows,
            args,
            &scale,
        ),
        "service_warm_closed" => service::run(args, &scale),
        "live_mixed" => live::run(args, &scale),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }?;
    r.context("seed", args.seed);
    r.context("seconds", args.seconds);
    r.context(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    r.context("git_rev", git_rev());
    r.context("scale", if args.smoke { "smoke" } else { "full" });
    Ok(r)
}

/// Prints the report, writes `--out`, and ends with the result line.
fn emit(r: &Report, args: &Args) -> Result<bool, String> {
    r.print()?;
    if let Some(path) = &args.out {
        r.write_out(path)?;
    }
    println!("{}", r.result_json()?);
    Ok(r.failed == 0)
}

/// `--workload all`: each workload in a fresh child process, untraced
/// then traced, their reports passed through; ends with one result line
/// whose metric names are `<workload>/<metric>`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for workload in metrics::WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stdout(Stdio::piped());
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(out) = &args.out {
                // One file per run, next to the requested path.
                cmd.arg("--out")
                    .arg(out.with_extension(format!("{workload}.trace{trace}.json")));
            }
            let output = cmd
                .output()
                .map_err(|e| format!("running {workload}: {e}"))?;
            let text = String::from_utf8_lossy(&output.stdout);
            let Some((report, last)) = text.trim_end().rsplit_once('\n') else {
                return Err(format!("{workload} (trace {trace}) printed no result"));
            };
            println!("{report}\n");
            let result =
                json::parse(last).map_err(|e| format!("{workload} (trace {trace}): {e}"))?;
            let num = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            attempted += num("attempted");
            failed += num("failed");
            if !output.status.success() && num("failed") == 0.0 {
                failed += 1.0;
            }
            for (name, v) in result
                .get("metrics")
                .and_then(Value::as_obj)
                .unwrap_or_default()
            {
                metrics.push((format!("{workload}/{name}"), v.clone()));
            }
        }
    }
    let result = Value::obj(vec![
        ("correct", Value::Bool(failed == 0.0)),
        ("attempted", Value::Num(attempted.max(1.0))),
        ("failed", Value::Num(failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{result}");
    Ok(failed == 0.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            emit(&run_workload(&args)?, &args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload live_mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("live_mixed", 7, 10.0)
        );
        assert!(a.trace && !a.smoke && a.out.is_none());
        let d = parse_args(&argv("--workload all --smoke")).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (42, Scale::smoke().seconds, false)
        );
        for bad in [
            "",
            "--workload",
            "--workload x --trace 2",
            "--workload x --seconds 0",
            "--workload x --bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary prints, with the same units, and keeps to the contract's
    /// key set. The file lives five directories up from this one.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json above the manifest directory");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(Scale::full().seconds)
        );
        let names = |key: &str, field: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get(field).unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let owned = |reg: &[(&str, &str)]| -> Vec<(String, String)> {
            reg.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end", "unit"), owned(END_TO_END));
        assert_eq!(names("per_layer", "unit"), owned(PER_LAYER));
        let workloads: Vec<String> = names("workloads", "why").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        for m in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    /// All four workloads at smoke scale, untraced and traced: each must
    /// be correct and print every metric of its registry exactly once.
    #[test]
    fn smoke_runs_print_every_registered_metric_once() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: Scale::smoke().seconds,
                    trace,
                    out: None,
                    smoke: true,
                };
                let r = run_workload(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
                r.print().unwrap();
                let result = r.result_json().unwrap();
                assert_eq!(
                    result.get("correct").unwrap().as_bool(),
                    Some(true),
                    "{workload} trace {trace}"
                );
                let registry = if trace { PER_LAYER } else { END_TO_END };
                let metrics = result.get("metrics").unwrap().as_obj().unwrap();
                assert_eq!(metrics.len(), registry.len());
                for (name, unit) in registry {
                    let hits: Vec<_> = metrics.iter().filter(|(k, _)| k == name).collect();
                    assert_eq!(hits.len(), 1, "{workload}: {name}");
                    assert_eq!(hits[0].1.get("unit").unwrap().as_str(), Some(*unit));
                    let v = hits[0].1.get("value").unwrap().as_f64().unwrap();
                    assert!(v.is_finite(), "{workload}: {name}");
                    if !trace {
                        assert!(v > 0.0, "{workload}: {name} must never be 0");
                    }
                }
            }
        }
    }
}
