//! Config-driven experiment runner: execute any [`ExperimentConfig`] — or a
//! JSON array of them, in parallel — from a file and write full results as
//! JSON. The integration point for external sweep tooling.
//!
//! ```sh
//! # print a template config
//! cargo run -p skiptrain-bench --release --bin run_config -- --template > exp.json
//! # run it
//! cargo run -p skiptrain-bench --release --bin run_config -- exp.json -o result.json
//! # run a batch of configs (JSON array) on 8 worker threads
//! cargo run -p skiptrain-bench --release --bin run_config -- batch.json --threads 8 -o results.json
//! # fault-tolerant batch with checkpoint/resume and per-cell retry
//! cargo run -p skiptrain-bench --release --bin run_config -- batch.json --resume batch.journal --retries 3 -o results.json
//! ```
//!
//! There is one path, `Campaign::run_resilient`, and three exit codes:
//! **2** when a config or the journal is unusable (configurations are
//! validated up front; the typed diagnostic names the offending array
//! index), **1** when a cell failed every attempt after validation (a
//! `FAILED` line per cell; its siblings still finish and are written), **0**
//! otherwise. `--retries N` re-runs a failed cell up to N more times,
//! `--resume` journals completed cells so a re-run skips them.

use skiptrain_bench::{exit_unusable, report_exit_code};
use skiptrain_core::presets::{cifar_config, Scale};
use skiptrain_core::{AlgorithmSpec, Campaign, ExperimentConfig, RetrySpec, Schedule};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--template") {
        let mut template = cifar_config(Scale::Quick, 42);
        template.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(4, 4));
        template.name = "my-experiment".into();
        println!("{}", serde_json::to_string_pretty(&template).unwrap());
        return;
    }

    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut resume: Option<String> = None;
    let mut retries = 0usize;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => output = it.next(),
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| exit_unusable("--threads needs a positive integer")),
                )
            }
            "--resume" => {
                resume = Some(
                    it.next()
                        .unwrap_or_else(|| exit_unusable("--resume needs a journal path")),
                )
            }
            "--retries" => {
                retries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| exit_unusable("--retries needs a non-negative integer"))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: run_config <config.json> [--threads N] [--resume journal.jsonl] [--retries N] [-o result.json] | --template\n\
                     <config.json> holds one ExperimentConfig or an array of them\n\
                     --resume   journal completed cells to the given JSONL file and skip\n\
                                cells it already holds (checkpoint/resume)\n\
                     --retries  extra attempts per failed cell (deterministic reseed)"
                );
                return;
            }
            path => input = Some(path.to_string()),
        }
    }
    let path = input.unwrap_or_else(|| exit_unusable("no config file given (try --template)"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| exit_unusable(format_args!("cannot read {path}: {e}")));
    // A batch file is a JSON array of configs; a single config runs as a
    // one-element campaign. Dispatch on the leading token so a malformed
    // batch reports its own parse error, not the single-config one.
    let batched = text.trim_start().starts_with('[');
    let configs: Vec<ExperimentConfig> = if batched {
        serde_json::from_str(&text)
            .unwrap_or_else(|e| exit_unusable(format_args!("invalid config batch: {e}")))
    } else {
        let single: ExperimentConfig = serde_json::from_str(&text)
            .unwrap_or_else(|e| exit_unusable(format_args!("invalid config: {e}")));
        vec![single]
    };

    let mut campaign = Campaign::from_configs(configs);
    if let Some(threads) = threads {
        campaign = campaign.threads(threads);
    }
    campaign.validate().unwrap_or_else(|e| exit_unusable(e));
    for cfg in campaign.configs() {
        eprintln!(
            "queued '{}': {} nodes, {} rounds, {} on {:?}",
            cfg.name,
            cfg.nodes,
            cfg.rounds,
            cfg.algorithm.name(),
            cfg.topology
        );
    }

    campaign = campaign.on_result(|run, result| {
        eprintln!(
            "run #{run} '{}' finished: acc {:.2}% (±{:.2}), training {:.2} Wh",
            result.name,
            result.final_test.mean_accuracy * 100.0,
            result.final_test.std_accuracy * 100.0,
            result.total_training_wh,
        );
    });

    if let Some(journal) = &resume {
        campaign = campaign.with_checkpoint(journal);
    }
    let report = campaign
        .retry(RetrySpec::attempts(retries.saturating_add(1)))
        .run_resilient()
        .unwrap_or_else(|e| exit_unusable(e));
    if report.restored > 0 {
        eprintln!(
            "restored {} completed cell(s) from the journal",
            report.restored
        );
    }
    for result in report.results.iter().flatten() {
        println!(
            "{}: final accuracy {:.2}% (±{:.2}), training energy {:.2} Wh, comm {:.3} Wh",
            result.name,
            result.final_test.mean_accuracy * 100.0,
            result.final_test.std_accuracy * 100.0,
            result.total_training_wh,
            result.total_comm_wh
        );
    }
    if let Some(out) = output {
        let rendered = if batched {
            serde_json::to_string_pretty(&report.results).unwrap()
        } else {
            serde_json::to_string_pretty(&report.results[0]).unwrap()
        };
        std::fs::write(&out, rendered).unwrap_or_else(|e| {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {out}");
    }
    std::process::exit(report_exit_code(&report));
}
