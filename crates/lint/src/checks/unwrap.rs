//! Check 6: the unwrap gate, absorbed from the PR-7 shell gate. Same
//! policy, same scope (`crates/engine/src`, `crates/store/src`), same
//! one-finding-per-line granularity as the old awk scan, so the 48
//! frozen sites migrate 1:1 into the fingerprint allowlist. New
//! `.unwrap()` / `.expect(` in non-test hot-path code must either be
//! converted to poison-tolerant handling (`lock_unpoisoned`,
//! `unwrap_or_else(PoisonError::into_inner)`) or deliberately frozen
//! via `--refresh`.

use std::collections::BTreeSet;

use crate::source::Workspace;
use crate::{CheckId, Diagnostic};

const SCOPE: &[&str] = &["engine", "store"];

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (_, f) in ws.src_files() {
        if !SCOPE.contains(&f.crate_name.as_str()) {
            continue;
        }
        let mut hit_lines: BTreeSet<u32> = BTreeSet::new();
        for (i, t) in f.tokens.iter().enumerate() {
            if f.in_test(t.line) {
                continue;
            }
            let dotted = i > 0 && f.tokens[i - 1].is_punct('.');
            if !dotted {
                continue;
            }
            let hit = (t.is_ident("unwrap")
                && f.tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                && f.tokens.get(i + 2).is_some_and(|n| n.is_punct(')')))
                || (t.is_ident("expect") && f.tokens.get(i + 1).is_some_and(|n| n.is_punct('(')));
            if hit {
                hit_lines.insert(t.line);
            }
        }
        for line in hit_lines {
            diags.push(Diagnostic {
                check: CheckId::UnwrapGate,
                file: f.rel.clone(),
                line,
                excerpt: f.excerpt(line).to_string(),
                message: "`.unwrap()`/`.expect(` in hot-path code: a poisoned lock \
                          or I/O error here aborts the worker \u{2014} handle it or \
                          freeze the site via --refresh"
                    .to_string(),
            });
        }
    }
    diags
}
