//! Schema-validated `LINT_report.json`: the binary self-validates the
//! report it emits and CI re-validates it, so the gate cannot silently
//! rot. (The dynamic counterpart of the `hot_path_alloc` rule is the test
//! `crates/bench/tests/alloc_pins.rs`.)
//!
//! # Report schema
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "git_rev": "abc1234",
//!   "root": ".",
//!   "files_scanned": 131,
//!   "rules": ["determinism", "no_panic", …],
//!   "counts": { "total": 12, "suppressed": 12, "unsuppressed": 0 },
//!   "findings": [
//!     { "rule": "no_panic", "file": "crates/core/src/campaign.rs",
//!       "line": 575, "column": 30, "message": "…",
//!       "suppressed": true, "reason": "poisoning recovered via into_inner" }
//!   ]
//! }
//! ```
//!
//! [`validate_report`] enforces exactly this shape: the rule list must
//! match the engine's, counts must be consistent with the findings
//! array, suppressed findings must carry a non-empty reason.

use crate::rules::{Finding, RULES};
use serde_json::Value;

/// Current schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Assembles the report object.
pub fn build_report(
    git_rev: &str,
    root: &str,
    files_scanned: usize,
    findings: &[Finding],
) -> Value {
    let suppressed = findings.iter().filter(|f| f.suppressed).count();
    let finding_values: Vec<Value> = findings
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("rule".to_string(), Value::String(f.rule.to_string())),
                ("file".to_string(), Value::String(f.file.clone())),
                ("line".to_string(), Value::UInt(f.line as u64)),
                ("column".to_string(), Value::UInt(f.col as u64)),
                ("message".to_string(), Value::String(f.message.clone())),
                ("suppressed".to_string(), Value::Bool(f.suppressed)),
                (
                    "reason".to_string(),
                    f.reason.clone().map(Value::String).unwrap_or(Value::Null),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema_version".to_string(), Value::UInt(SCHEMA_VERSION)),
        ("git_rev".to_string(), Value::String(git_rev.to_string())),
        ("root".to_string(), Value::String(root.to_string())),
        (
            "files_scanned".to_string(),
            Value::UInt(files_scanned as u64),
        ),
        (
            "rules".to_string(),
            Value::Array(RULES.iter().map(|r| Value::String(r.to_string())).collect()),
        ),
        (
            "counts".to_string(),
            Value::Object(vec![
                ("total".to_string(), Value::UInt(findings.len() as u64)),
                ("suppressed".to_string(), Value::UInt(suppressed as u64)),
                (
                    "unsuppressed".to_string(),
                    Value::UInt((findings.len() - suppressed) as u64),
                ),
            ]),
        ),
        ("findings".to_string(), Value::Array(finding_values)),
    ])
}

fn field<'a>(v: &'a Value, ctx: &str, key: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing field '{key}'"))
}

fn uint(v: &Value, ctx: &str, key: &str) -> Result<u64, String> {
    field(v, ctx, key)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: '{key}' is not an unsigned integer"))
}

fn string<'a>(v: &'a Value, ctx: &str, key: &str) -> Result<&'a str, String> {
    field(v, ctx, key)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: '{key}' is not a string"))
}

fn nonempty<'a>(v: &'a Value, ctx: &str, key: &str) -> Result<&'a str, String> {
    let s = string(v, ctx, key)?;
    if s.is_empty() {
        return Err(format!("{ctx}: '{key}' is empty"));
    }
    Ok(s)
}

/// Validates a lint report against the schema documented at module
/// level.
pub fn validate_report(report: &Value) -> Result<(), String> {
    if report.as_object().is_none() {
        return Err("report must be a JSON object".to_string());
    }
    let version = uint(report, "report", "schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "report: schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    nonempty(report, "report", "git_rev")?;
    nonempty(report, "report", "root")?;
    let files = uint(report, "report", "files_scanned")?;
    if files == 0 {
        return Err("report: files_scanned is zero — the scan saw nothing".to_string());
    }

    let rules = field(report, "report", "rules")?
        .as_array()
        .ok_or_else(|| "report: 'rules' is not an array".to_string())?;
    let rule_names: Vec<&str> = rules.iter().filter_map(|r| r.as_str()).collect();
    if rule_names != RULES {
        return Err(format!(
            "report: rule list {rule_names:?} does not match the engine's {RULES:?}"
        ));
    }

    let findings = field(report, "report", "findings")?
        .as_array()
        .ok_or_else(|| "report: 'findings' is not an array".to_string())?;
    let mut suppressed = 0u64;
    for (i, f) in findings.iter().enumerate() {
        let ctx = format!("finding #{i}");
        let rule = nonempty(f, &ctx, "rule")?;
        if !RULES.contains(&rule) {
            return Err(format!("{ctx}: unknown rule '{rule}'"));
        }
        nonempty(f, &ctx, "file")?;
        if uint(f, &ctx, "line")? == 0 || uint(f, &ctx, "column")? == 0 {
            return Err(format!("{ctx}: line/column are 1-based, got zero"));
        }
        nonempty(f, &ctx, "message")?;
        let is_suppressed = field(f, &ctx, "suppressed")?
            .as_bool()
            .ok_or_else(|| format!("{ctx}: 'suppressed' is not a bool"))?;
        let reason = field(f, &ctx, "reason")?;
        if is_suppressed {
            suppressed += 1;
            if reason.as_str().is_none_or(|r| r.trim().is_empty()) {
                return Err(format!(
                    "{ctx}: suppressed finding must carry a non-empty reason"
                ));
            }
        } else if !reason.is_null() {
            return Err(format!("{ctx}: unsuppressed finding must have null reason"));
        }
    }

    let counts = field(report, "report", "counts")?;
    let total = uint(counts, "counts", "total")?;
    let sup = uint(counts, "counts", "suppressed")?;
    let unsup = uint(counts, "counts", "unsuppressed")?;
    if total != findings.len() as u64 {
        return Err(format!(
            "counts.total {total} != findings array length {}",
            findings.len()
        ));
    }
    if sup != suppressed {
        return Err(format!(
            "counts.suppressed {sup} != suppressed findings {suppressed}"
        ));
    }
    if sup + unsup != total {
        return Err(format!(
            "counts do not add up: {sup} suppressed + {unsup} unsuppressed != {total} total"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_finding(suppressed: bool) -> Finding {
        Finding {
            rule: "no_panic",
            file: "crates/core/src/x.rs".to_string(),
            line: 10,
            col: 5,
            message: "example".to_string(),
            suppressed,
            reason: suppressed.then(|| "provably infallible".to_string()),
        }
    }

    #[test]
    fn built_report_round_trips_and_validates() {
        let report = build_report(
            "abc1234",
            ".",
            42,
            &[sample_finding(true), sample_finding(false)],
        );
        validate_report(&report).expect("fresh report must validate");
        let text = serde_json::to_string_pretty(&report).expect("serializes");
        let parsed: Value = serde_json::from_str(&text).expect("parses");
        validate_report(&parsed).expect("parsed report must validate");
    }

    #[test]
    fn zero_files_scanned_is_rejected() {
        let report = build_report("rev", ".", 0, &[]);
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("files_scanned"), "{err}");
    }

    #[test]
    fn suppressed_without_reason_is_rejected() {
        let mut f = sample_finding(true);
        f.reason = None;
        let report = build_report("rev", ".", 1, &[f]);
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let report = build_report("rev", ".", 1, &[sample_finding(false)]);
        // corrupt the counts object
        let Value::Object(mut fields) = report else {
            panic!("report is an object")
        };
        for (k, v) in &mut fields {
            if k == "counts" {
                *v = Value::Object(vec![
                    ("total".to_string(), Value::UInt(5)),
                    ("suppressed".to_string(), Value::UInt(0)),
                    ("unsuppressed".to_string(), Value::UInt(5)),
                ]);
            }
        }
        let err = validate_report(&Value::Object(fields)).unwrap_err();
        assert!(err.contains("counts.total"), "{err}");
    }

    #[test]
    fn rule_list_drift_is_rejected() {
        let report = build_report("rev", ".", 1, &[]);
        let Value::Object(mut fields) = report else {
            panic!("report is an object")
        };
        for (k, v) in &mut fields {
            if k == "rules" {
                *v = Value::Array(vec![Value::String("no_panic".to_string())]);
            }
        }
        let err = validate_report(&Value::Object(fields)).unwrap_err();
        assert!(err.contains("rule list"), "{err}");
    }

    #[test]
    fn empty_git_rev_is_rejected() {
        let report = build_report("", ".", 1, &[]);
        assert!(validate_report(&report).is_err());
    }
}
