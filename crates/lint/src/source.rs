//! Workspace loading and the per-file source model.
//!
//! The analyzer scans `crates/*/src/**/*.rs` (production code — the
//! one-level glob naturally excludes the vendored `crates/compat/*`
//! shims, which live one directory deeper) and additionally loads
//! `crates/*/tests/**/*.rs`, DESIGN.md and the CI workflow, which the
//! stats-attribution and invariant cross-reference checks read but
//! never lint.
//!
//! Test exemption follows the convention the PR-7 shell gate
//! enforced: everything at or below the first `#[cfg(test)]` line of a
//! source file is test code (the repo keeps a single trailing
//! `mod tests`), and files under a crate's `tests/` directory are test
//! code in full.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token};

/// One loaded Rust source file with its token stream.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Name of the owning crate directory (`store`, `engine`, …).
    pub crate_name: String,
    /// Short module label used in lock-graph node names: the file stem,
    /// or the parent directory for `mod.rs`.
    pub module: String,
    pub lines: Vec<String>,
    pub tokens: Vec<Token>,
    /// 1-based line of the first `#[cfg(test)]`; `u32::MAX` if none.
    pub test_cutoff: u32,
    /// True for files under `crates/*/tests/`.
    pub is_test_file: bool,
}

impl SourceFile {
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file || line >= self.test_cutoff
    }

    /// Trimmed source text of a 1-based line (empty if out of range).
    pub fn excerpt(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim())
            .unwrap_or("")
    }
}

/// Everything the checks need, loaded once.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    pub design_md: Option<String>,
    pub ci_yml: Option<String>,
}

impl Workspace {
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = match fs::read_dir(&crates_dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect(),
            Err(e) => return Err(e),
        };
        crate_dirs.sort();
        for dir in crate_dirs {
            let crate_name = dir
                .file_name()
                .and_then(|s| s.to_str())
                .unwrap_or("")
                .to_string();
            for (sub, is_test) in [("src", false), ("tests", true)] {
                let base = dir.join(sub);
                if !base.is_dir() {
                    continue;
                }
                let mut rs_files = Vec::new();
                collect_rs(&base, &mut rs_files)?;
                rs_files.sort();
                for path in rs_files {
                    files.push(load_file(root, &path, &crate_name, is_test)?);
                }
            }
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            design_md: fs::read_to_string(root.join("DESIGN.md")).ok(),
            ci_yml: fs::read_to_string(root.join(".github/workflows/ci.yml")).ok(),
        })
    }

    /// Indexes of production (non-`tests/`) files.
    pub fn src_files(&self) -> impl Iterator<Item = (usize, &SourceFile)> {
        self.files
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test_file)
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn load_file(root: &Path, path: &Path, crate_name: &str, is_test: bool) -> io::Result<SourceFile> {
    let text = fs::read_to_string(path)?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let test_cutoff = lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .map(|i| i as u32 + 1)
        .unwrap_or(u32::MAX);
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("")
        .to_string();
    let module = if stem == "mod" {
        path.parent()
            .and_then(|p| p.file_name())
            .and_then(|s| s.to_str())
            .unwrap_or("mod")
            .to_string()
    } else {
        stem
    };
    Ok(SourceFile {
        rel,
        crate_name: crate_name.to_string(),
        module,
        tokens: lex(&text),
        lines,
        test_cutoff,
        is_test_file: is_test,
    })
}

/// A function definition located in a file's token stream.
pub struct FnDef {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, excluding the outer braces.
    pub body: (usize, usize),
}

/// Extracts all `fn name(...) { ... }` definitions (free functions,
/// methods, trait default methods — anything introduced by the `fn`
/// keyword followed by a name). Bodyless trait signatures are skipped,
/// as are `fn(...)` pointer types (no name follows the keyword).
pub fn extract_fns(tokens: &[Token]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) {
                let line = tokens[i].line;
                // Scan the header for the body `{` at bracket depth 0;
                // `;` at depth 0 means a bodyless signature.
                let mut j = i + 2;
                let mut depth = 0i32;
                let mut body = None;
                while j < tokens.len() {
                    match tokens[j].tok {
                        crate::lexer::Tok::Punct('(') | crate::lexer::Tok::Punct('[') => depth += 1,
                        crate::lexer::Tok::Punct(')') | crate::lexer::Tok::Punct(']') => depth -= 1,
                        crate::lexer::Tok::Punct('{') if depth == 0 => {
                            body = Some(j);
                            break;
                        }
                        crate::lexer::Tok::Punct(';') if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(open) = body {
                    let close = matching_brace(tokens, open);
                    out.push(FnDef {
                        name: name.to_string(),
                        line,
                        body: (open + 1, close),
                    });
                }
                // Continue just past the name: nested fns are found by
                // the same scan.
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or end of stream).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            crate::lexer::Tok::Punct('{') => depth += 1,
            crate::lexer::Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}
