//! CLI for the analyzer. CI runs `cargo run -p fastmatch-lint -- --deny`
//! from the workspace root; `--refresh` regenerates the allowlist in
//! place (freezing every current finding, keeping justifications),
//! and `--check <id>` narrows the run (`--check unwrap_gate` is the
//! old shell gate).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fastmatch_lint::{allowlist::Allowlist, locks, run_checks, CheckId};

const USAGE: &str = "\
fastmatch-lint: repo-specific static analysis for the FastMatch workspace

USAGE: fastmatch-lint [--deny] [--refresh] [--check <id>[,<id>…]]
                      [--root <dir>] [--allowlist <file>] [--dot <file>] [--list]

  --deny        exit nonzero on any unallowlisted finding (CI mode;
                default is advisory: print findings, exit 0)
  --refresh     rewrite the allowlist from current findings, preserving
                justifications, then exit
  --check       run only the named checks (default: all six)
  --root        workspace root (default: current directory)
  --allowlist   allowlist path (default: <root>/ci/lint_allowlist.txt)
  --dot         where to write the lock-order DOT graph
                (default: <root>/crates/lint/LOCK_ORDER.dot when the
                lock_order check runs; pass 'none' to skip)
  --list        print check ids and exit";

fn main() -> ExitCode {
    let mut deny = false;
    let mut refresh = false;
    let mut root = PathBuf::from(".");
    let mut allowlist_path: Option<PathBuf> = None;
    let mut dot_path: Option<String> = None;
    let mut selected: Vec<CheckId> = CheckId::ALL.to_vec();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--refresh" => refresh = true,
            "--list" => {
                for c in CheckId::ALL {
                    println!("{}", c.id());
                }
                return ExitCode::SUCCESS;
            }
            "--check" => {
                let Some(v) = args.next() else {
                    eprintln!("--check needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                selected.clear();
                for part in v.split(',') {
                    match CheckId::parse(part.trim()) {
                        Some(c) => selected.push(c),
                        None => {
                            eprintln!("unknown check `{part}` (see --list)");
                            return ExitCode::from(2);
                        }
                    }
                }
            }
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => {
                    eprintln!("--root needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--allowlist" => match args.next() {
                Some(v) => allowlist_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--allowlist needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--dot" => match args.next() {
                Some(v) => dot_path = Some(v),
                None => {
                    eprintln!("--dot needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let t0 = Instant::now();
    let analysis = match run_checks(&root, &selected) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "fastmatch-lint: cannot load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    let alpath = allowlist_path.unwrap_or_else(|| root.join("ci/lint_allowlist.txt"));
    let allow = Allowlist::load(&alpath);

    if refresh {
        if let Err(e) = allow.refresh(&alpath, &analysis.diags) {
            eprintln!("fastmatch-lint: cannot write {}: {e}", alpath.display());
            return ExitCode::from(2);
        }
        println!(
            "fastmatch-lint: froze {} finding(s) into {}",
            analysis.diags.len(),
            alpath.display()
        );
        return ExitCode::SUCCESS;
    }

    // DOT artifact whenever the lock-order check ran.
    if selected.contains(&CheckId::LockOrder) {
        let dot = match dot_path.as_deref() {
            Some("none") => None,
            Some(p) => Some(PathBuf::from(p)),
            None => Some(root.join("crates/lint/LOCK_ORDER.dot")),
        };
        if let Some(p) = dot {
            if let Err(e) = std::fs::write(&p, locks::to_dot(&analysis.edges)) {
                eprintln!("fastmatch-lint: cannot write {}: {e}", p.display());
            }
        }
    }

    let total = analysis.diags.len();
    let (suppressed, reported, stale) = allow.apply(analysis.diags, &selected);
    for d in &reported {
        println!("{}", d.render());
    }
    println!(
        "fastmatch-lint: {} finding(s), {} allowlisted, {} reported, {} stale allowlist entr{} ({} checks, {:?})",
        total,
        suppressed.len(),
        reported.len(),
        stale,
        if stale == 1 { "y" } else { "ies" },
        selected.len(),
        t0.elapsed()
    );
    if !reported.is_empty() {
        println!(
            "note: intentional sites can be frozen with `cargo run -p fastmatch-lint -- --refresh` \
             (fill in the justification column)"
        );
        if deny {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
