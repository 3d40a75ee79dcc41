//! Fault-injection smoke: a campaign under simultaneous cell panics,
//! wire-level frame corruption, and membership churn, executed through
//! `Campaign::run_resilient` with a checkpoint journal.
//!
//! The harness is the end-to-end gate for the fault-tolerance layer:
//!
//! * **cell faults** — two named cells panic on their first attempt (via
//!   an injected observer factory) and succeed on the deterministic
//!   retry seed; one cell panics on *every* attempt and must surface as
//!   a typed `CellFailure` without taking down its siblings;
//! * **wire faults** — every experiment runs the serialized transport
//!   with a per-message corruption probability, so corrupted frames
//!   exercise the checksum reject path and the `corrupted_messages`
//!   counter, accounted exactly like drops;
//! * **churn** — light seeded leave/rejoin keeps membership changing
//!   under the faults;
//! * **checkpoint/resume** — the run journals to a temp file; the
//!   harness then truncates the journal to simulate a crash and
//!   re-runs, asserting the resumed results are bit-identical to the
//!   uninterrupted ones.
//!
//! Exits non-zero on any violated invariant, so the CI step is the gate.

use skiptrain_bench::{banner, run_cells, HarnessArgs};
use skiptrain_core::presets::cifar_config;
use skiptrain_core::{retry_seed, Campaign, ChurnSpec, ExperimentConfig, RetrySpec, TransportKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn fail(msg: &str) -> ! {
    eprintln!("FAULT-TOLERANCE SMOKE FAILED: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = HarnessArgs::parse();
    let mut base = cifar_config(args.scale, args.seed);
    args.apply(&mut base);
    base.eval_every = base.rounds;
    base.transport = TransportKind::Serialized {
        drop_prob: 0.05,
        corrupt_prob: 0.1,
    };
    base.churn = Some(ChurnSpec {
        leave_prob: 0.05,
        rejoin_prob: 0.5,
    });
    banner(&format!(
        "fault-tolerance smoke: panics + frame corruption + churn ({} nodes, {} rounds)",
        base.nodes, base.rounds
    ));

    // Six cells: two flaky (panic on attempt 1, succeed on the retry
    // seed), one doomed (panics every attempt), three healthy.
    let mut configs: Vec<ExperimentConfig> = Vec::new();
    for i in 0..6usize {
        let mut cfg = base.clone();
        cfg.seed = args.seed + i as u64;
        cfg.name = match i {
            1 | 4 => format!("flaky-{i}"),
            2 => "doomed".into(),
            _ => format!("healthy-{i}"),
        };
        configs.push(cfg);
    }
    let flaky_seeds: Vec<u64> = configs
        .iter()
        .filter(|c| c.name.starts_with("flaky"))
        .map(|c| c.seed)
        .collect();

    let journal = std::env::temp_dir().join(format!(
        "skiptrain-fault-smoke-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);

    let injected_panics = Arc::new(AtomicUsize::new(0));
    let campaign = |checkpoint: &std::path::Path| {
        let flaky_seeds = flaky_seeds.clone();
        let counter = Arc::clone(&injected_panics);
        Campaign::from_configs(configs.clone())
            .retry(RetrySpec::attempts(2))
            .with_checkpoint(checkpoint)
            .observe_with(move |_, cfg| {
                if cfg.name == "doomed" || flaky_seeds.contains(&cfg.seed) {
                    counter.fetch_add(1, Ordering::SeqCst);
                    panic!("injected fault in '{}'", cfg.name);
                }
                Vec::new()
            })
            .on_failure(|failure| eprintln!("  terminal failure: {failure}"))
    };

    let report = campaign(&journal)
        .run_resilient()
        .unwrap_or_else(|e| fail(&format!("campaign could not run: {e}")));

    // --- failure isolation + retry ------------------------------------
    if report.failures.len() != 1 {
        fail(&format!(
            "expected 1 terminal failure, got {}",
            report.failures.len()
        ));
    }
    let doomed = &report.failures[0];
    if doomed.name != "doomed" || doomed.attempts != 2 {
        fail(&format!("unexpected terminal failure: {doomed}"));
    }
    if injected_panics.load(Ordering::SeqCst) == 0 {
        fail("no panics were injected");
    }
    let completed = report.results.iter().flatten().count();
    if completed != 5 {
        fail(&format!("expected 5 completed cells, got {completed}"));
    }
    // Retried flaky cells run the derived seed, bit-identical to a fresh
    // run configured with it directly.
    for (i, cfg) in configs.iter().enumerate() {
        if !cfg.name.starts_with("flaky") {
            continue;
        }
        let mut fresh_cfg = cfg.clone();
        fresh_cfg.seed = retry_seed(cfg.seed, 2);
        let fresh = &run_cells(vec![fresh_cfg])[0];
        let retried = report.results[i].as_ref().unwrap();
        if retried.final_test.mean_accuracy.to_bits() != fresh.final_test.mean_accuracy.to_bits()
            || retried.final_mean_model != fresh.final_mean_model
        {
            fail(&format!(
                "retried '{}' diverged from fresh run at the retry seed",
                cfg.name
            ));
        }
    }

    // --- wire corruption ----------------------------------------------
    let corrupted: u64 = report
        .results
        .iter()
        .flatten()
        .map(|r| r.corrupted_messages)
        .sum();
    if corrupted == 0 {
        fail("no frames were corrupted despite corrupt_prob = 0.1");
    }

    // --- journal resume equivalence -----------------------------------
    // Simulate a crash: keep the manifest and the first two completed
    // cells, tear the third record mid-line, then resume.
    let text = std::fs::read_to_string(&journal)
        .unwrap_or_else(|e| fail(&format!("cannot read journal: {e}")));
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != 1 + completed {
        fail(&format!(
            "journal holds {} lines, expected manifest + {completed} cells",
            lines.len()
        ));
    }
    let truncated = std::env::temp_dir().join(format!(
        "skiptrain-fault-smoke-truncated-{}.jsonl",
        std::process::id()
    ));
    let mut partial = lines[..3].join("\n");
    partial.push('\n');
    partial.push_str(&lines[3][..lines[3].len() / 2]);
    std::fs::write(&truncated, partial)
        .unwrap_or_else(|e| fail(&format!("cannot write truncated journal: {e}")));

    let resumed = campaign(&truncated)
        .run_resilient()
        .unwrap_or_else(|e| fail(&format!("resume could not run: {e}")));
    if resumed.restored != 2 {
        fail(&format!(
            "expected 2 restored cells, got {}",
            resumed.restored
        ));
    }
    for (i, (a, b)) in report.results.iter().zip(&resumed.results).enumerate() {
        match (a, b) {
            (Some(a), Some(b)) => {
                if a.final_test.mean_accuracy.to_bits() != b.final_test.mean_accuracy.to_bits()
                    || a.final_mean_model != b.final_mean_model
                    || a.corrupted_messages != b.corrupted_messages
                {
                    fail(&format!("cell #{i} diverged after journal resume"));
                }
            }
            (None, None) => {}
            _ => fail(&format!("cell #{i} completion state changed after resume")),
        }
    }

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&truncated);
    println!(
        "fault-tolerance smoke passed: {completed}/6 cells completed, 1 typed failure, \
         {} injected panics, {corrupted} corrupted frames, resume bit-identical",
        injected_panics.load(Ordering::SeqCst)
    );
}
