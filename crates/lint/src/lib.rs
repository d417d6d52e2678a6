//! `fastmatch-lint`: a repo-specific static analyzer.
//!
//! The dynamic model checker (`crates/check`) proves the concurrency
//! protocols correct *as modelled*; this crate closes the static half:
//! it checks that the **source code still follows the conventions the
//! models assume**. Std-only, no `syn` — a hand-rolled lexer
//! ([`lexer`]) plus a guard-liveness pass ([`locks`]) are enough for
//! the six checks, and keep the tool buildable in the offline CI image
//! and fast enough (< 5 s) to run on every push.
//!
//! | id | check |
//! |----|-------|
//! | `lock_scope`     | no blocking call (fsync, sleep, file write, recv, join — direct or via call chain) while a mutex/rwlock guard is live |
//! | `lock_order`     | cross-file lock acquisition graph must be a DAG; emitted as DOT |
//! | `wakeup`         | `notify_one` only at allowlisted single-consumer sites |
//! | `invariant_xref` | model invariants ⇔ DESIGN.md § Concurrency protocols; every `finds_*` mutation test wired in CI |
//! | `stats_attr`     | every pub counter on the Stats structs has a production write site and a test mention |
//! | `unwrap_gate`    | no new `.unwrap()`/`.expect(` in engine/store hot paths (absorbed the PR-7 shell gate) |
//!
//! Intentional exceptions live in `ci/lint_allowlist.txt`
//! ([`allowlist`]), fingerprinted by (check, path, source text) so
//! line-number churn is irrelevant.

pub mod allowlist;
pub mod checks;
pub mod lexer;
pub mod locks;
pub mod source;

use std::path::Path;

/// The six checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    LockScope,
    LockOrder,
    Wakeup,
    Invariants,
    Stats,
    UnwrapGate,
}

impl CheckId {
    pub const ALL: [CheckId; 6] = [
        CheckId::LockScope,
        CheckId::LockOrder,
        CheckId::Wakeup,
        CheckId::Invariants,
        CheckId::Stats,
        CheckId::UnwrapGate,
    ];

    pub fn id(&self) -> &'static str {
        match self {
            CheckId::LockScope => "lock_scope",
            CheckId::LockOrder => "lock_order",
            CheckId::Wakeup => "wakeup",
            CheckId::Invariants => "invariant_xref",
            CheckId::Stats => "stats_attr",
            CheckId::UnwrapGate => "unwrap_gate",
        }
    }

    pub fn parse(s: &str) -> Option<CheckId> {
        CheckId::ALL.iter().copied().find(|c| c.id() == s)
    }
}

/// One finding. `excerpt` is the trimmed source line (it feeds the
/// fingerprint, so it must be stable under reformatting-free moves).
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub check: CheckId,
    pub file: String,
    pub line: u32,
    pub excerpt: String,
    pub message: String,
}

impl Diagnostic {
    /// Clippy-style rendering.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}\n   |  {}\n",
            self.check.id(),
            self.message,
            self.file,
            self.line,
            self.excerpt
        )
    }
}

/// Full analyzer output: findings plus the lock-order edge list (for
/// the DOT artifact even when acyclic).
pub struct Analysis {
    pub diags: Vec<Diagnostic>,
    pub edges: Vec<locks::Edge>,
}

/// Runs the selected checks against the workspace rooted at `root`.
pub fn run_checks(root: &Path, selected: &[CheckId]) -> std::io::Result<Analysis> {
    let ws = source::Workspace::load(root)?;
    let mut diags = Vec::new();
    let mut edges = Vec::new();
    let wants = |c: CheckId| selected.contains(&c);

    if wants(CheckId::LockScope) || wants(CheckId::LockOrder) {
        let la = locks::analyze(&ws);
        if wants(CheckId::LockScope) {
            diags.extend(la.diags);
        }
        if wants(CheckId::LockOrder) {
            diags.extend(locks::find_cycles(&la.edges));
        }
        edges = la.edges;
    }
    if wants(CheckId::Wakeup) {
        diags.extend(checks::wakeup::run(&ws));
    }
    if wants(CheckId::Invariants) {
        diags.extend(checks::invariants::run(&ws));
    }
    if wants(CheckId::Stats) {
        diags.extend(checks::stats::run(&ws));
    }
    if wants(CheckId::UnwrapGate) {
        diags.extend(checks::unwrap::run(&ws));
    }
    diags.sort_by(|a, b| {
        (a.check, &a.file, a.line, &a.message).cmp(&(b.check, &b.file, b.line, &b.message))
    });
    Ok(Analysis { diags, edges })
}
