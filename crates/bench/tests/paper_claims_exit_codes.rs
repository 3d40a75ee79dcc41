//! `paper_claims` exits 0 when every exact claim passes and writes one JSON
//! row per claim; a bad flag exits 2. It never exits 101.

use std::process::Command;

#[test]
fn paper_claims_exits_0_with_parseable_rows_and_2_on_a_bad_flag() {
    let json = std::env::temp_dir().join(format!(
        "skiptrain-paper-claims-{}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_paper_claims"))
        .args(["--nodes", "12", "--rounds", "12", "--json"])
        .arg(&json)
        .output()
        .expect("paper_claims spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let text = std::fs::read_to_string(&json).expect("--json was written");
    let _ = std::fs::remove_file(&json);

    let report: serde_json::Value = serde_json::from_str(&text).expect("the rows parse");
    assert_eq!(report["experiment"], "paper_claims");
    let rows = report["rows"].as_array().expect("a row array");
    let kind = |row: &serde_json::Value| row["class"]["kind"].as_str().unwrap_or("").to_string();
    let count = |k: &str| rows.iter().filter(|row| kind(row) == k).count();
    // 56 at the paper's scale and one ledger row per Figure 5 run
    assert_eq!(count("exact"), 56 + 12);
    // Table 3 and Table 4 per dataset × degree, and Figure 4
    assert_eq!(count("ordering"), 6 + 6 + 1);
    // Table 3's accuracies, Table 4's accuracies and budgets
    assert_eq!(count("informational"), 12 + 18 + 18);
    assert_eq!(rows.len(), 68 + 13 + 48);
    for row in rows {
        assert!(
            row["claim"].as_str().is_some_and(|c| !c.is_empty()),
            "{row:?}"
        );
        assert!(row["measured"].as_f64().is_some(), "{row:?}");
        match kind(row).as_str() {
            "exact" => assert_eq!(row["class"]["pass"], true, "{row:?}"),
            "ordering" => assert_eq!(row["class"]["seeds"], 3, "{row:?}"),
            other => assert_eq!(other, "informational", "{row:?}"),
        }
    }

    let bad = Command::new(env!("CARGO_BIN_EXE_paper_claims"))
        .arg("--no-such-flag")
        .output()
        .expect("paper_claims spawns");
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown flag"));
}
