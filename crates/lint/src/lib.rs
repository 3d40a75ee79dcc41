//! skiptrain-lint: workspace invariant lint.
//!
//! A self-contained static-analysis pass (hand-rolled lexer, token-level
//! rules, no syn/quote — the workspace vendors everything it depends on)
//! that enforces five invariant families the compiler cannot:
//!
//! | rule             | invariant                                                        |
//! |------------------|------------------------------------------------------------------|
//! | `determinism`    | no wall-clock / ambient entropy / iteration-order-unstable maps  |
//! | `no_panic`       | no `unwrap`/`expect`/`panic!` family in shipped library code     |
//! | `hot_path_alloc` | manifest-listed hot functions do not allocate                    |
//! | `seed_stream`    | seed arithmetic only through the `derive_seed` helper family     |
//! | `unsafe_hygiene` | every `unsafe` block carries a `// SAFETY:` comment              |
//!
//! Findings are suppressable only via a reasoned `lint:allow` comment —
//! the rule name and a quoted justification in parentheses, e.g.
//! `lint:allow(no_panic, "length checked two lines up")` — and malformed
//! pragmas (missing or empty reason, unknown rule) are themselves findings
//! (rule `pragma`) and cannot be suppressed. The CLI
//! (`cargo run -p lint -- --workspace`) emits a schema-validated
//! `LINT_report.json` and exits nonzero on any unsuppressed finding,
//! which is what CI gates on.

pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod scope;

use rules::{FileClass, Finding};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose `src/` trees carry the library-code rules
/// (determinism, no-panic, seed-stream). `bench` and `lint` itself are
/// tooling — only `unsafe_hygiene` applies there, as it does to the
/// vendored shims.
pub const LIB_CRATES: &[&str] = &[
    "core",
    "data",
    "energy",
    "engine",
    "linalg",
    "nn",
    "oracle",
    "skiptrain",
    "topology",
];

/// Directory names never descended into during the workspace walk.
/// `fixtures` holds the lint crate's own deliberately-violating test
/// corpus, which must not fail the real gate.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Hot-path manifest: `file path -> function names` that must not
/// allocate. Parsed from `hotpaths.txt` lines of the form
/// `crates/linalg/src/ops.rs::dot`; `#` starts a comment.
pub fn parse_manifest(text: &str) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((path, func)) = line.rsplit_once("::") else {
            return Err(format!(
                "hotpaths manifest line {}: expected 'path::fn_name', got '{line}'",
                lineno + 1
            ));
        };
        let (path, func) = (path.trim(), func.trim());
        if path.is_empty() || func.is_empty() {
            return Err(format!(
                "hotpaths manifest line {}: empty path or function in '{line}'",
                lineno + 1
            ));
        }
        map.entry(path.to_string())
            .or_default()
            .push(func.to_string());
    }
    Ok(map)
}

/// True when every component of `rel` (a `/`-separated workspace-relative
/// path) stays out of [`SKIP_DIRS`].
fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut names: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read entry in {}: {e}", dir.display()))?;
        names.push(entry.path());
    }
    // sorted traversal keeps finding order (and the report) deterministic
    names.sort();
    for path in names {
        if path.is_dir() {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Classifies a workspace-relative file path: which rule families apply.
pub fn classify(rel: &str, manifest: &BTreeMap<String, Vec<String>>) -> FileClass {
    let lib_rules = LIB_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    FileClass {
        lib_rules,
        hot_fns: manifest.get(rel).cloned().unwrap_or_default(),
    }
}

/// Scans `crates/` and `vendor/` under `root`, returning the number of
/// files checked and every finding in deterministic (path, line) order.
pub fn scan_workspace(
    root: &Path,
    manifest: &BTreeMap<String, Vec<String>>,
) -> Result<(usize, Vec<Finding>), String> {
    let mut files = Vec::new();
    for top in ["crates", "vendor"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_rs_files(&dir, &mut files)?;
        }
    }
    if files.is_empty() {
        return Err(format!(
            "no .rs files found under {} — wrong --root?",
            root.display()
        ));
    }

    let mut rels: Vec<String> = Vec::with_capacity(files.len());
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let class = classify(&rel, manifest);
        findings.extend(rules::check_file(&rel, &src, &class));
        rels.push(rel);
    }

    // a manifest entry naming a file the walk never saw is rot — fail
    // loudly rather than silently un-protecting a hot path
    for manifest_path in manifest.keys() {
        if !rels.iter().any(|r| r == manifest_path) {
            return Err(format!(
                "hotpaths manifest names '{manifest_path}' but no such file was scanned"
            ));
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok((files.len(), findings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parses_paths_comments_and_blanks() {
        let text = "\
# hot paths\n\
crates/linalg/src/ops.rs::dot\n\
crates/linalg/src/ops.rs::axpy  # inner loop\n\
\n\
crates/linalg/src/gemm.rs::gemm_into\n";
        let map = parse_manifest(text).expect("parses");
        assert_eq!(
            map.get("crates/linalg/src/ops.rs").map(Vec::as_slice),
            Some(&["dot".to_string(), "axpy".to_string()][..])
        );
        assert_eq!(map.get("crates/linalg/src/gemm.rs").map(Vec::len), Some(1));
    }

    #[test]
    fn manifest_rejects_shapeless_lines() {
        assert!(parse_manifest("just_a_path.rs").is_err());
        assert!(parse_manifest("path.rs::").is_err());
        assert!(parse_manifest("::func").is_err());
    }

    #[test]
    fn classification_applies_lib_rules_to_library_src_only() {
        let manifest = BTreeMap::new();
        assert!(classify("crates/engine/src/executor.rs", &manifest).lib_rules);
        assert!(classify("crates/linalg/src/ops.rs", &manifest).lib_rules);
        assert!(classify("crates/oracle/src/queue.rs", &manifest).lib_rules);
        assert!(!classify("crates/bench/src/perf.rs", &manifest).lib_rules);
        assert!(!classify("crates/lint/src/rules.rs", &manifest).lib_rules);
        assert!(!classify("vendor/rand/src/lib.rs", &manifest).lib_rules);
        assert!(!classify("crates/engine/tests/integration.rs", &manifest).lib_rules);
    }

    #[test]
    fn classification_attaches_hot_fns() {
        let manifest = parse_manifest("crates/linalg/src/ops.rs::dot\n").expect("parses");
        let class = classify("crates/linalg/src/ops.rs", &manifest);
        assert_eq!(class.hot_fns, vec!["dot".to_string()]);
        assert!(classify("crates/linalg/src/gemm.rs", &manifest)
            .hot_fns
            .is_empty());
    }
}
