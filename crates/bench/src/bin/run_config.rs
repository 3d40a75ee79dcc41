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
//! Configurations are validated up front: an invalid config fails fast with
//! a typed diagnostic (and the offending array index) instead of panicking
//! mid-run. With `--resume` or `--retries` the batch runs resiliently
//! (`Campaign::run_resilient`): failed cells are reported and retried
//! instead of aborting the batch, completed cells are journaled, and a
//! re-run against the same journal skips them.

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
    let mut retries: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => output = it.next(),
            "--threads" => {
                threads = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --threads needs a positive integer");
                    std::process::exit(2);
                }))
            }
            "--resume" => {
                resume = Some(it.next().unwrap_or_else(|| {
                    eprintln!("error: --resume needs a journal path");
                    std::process::exit(2);
                }))
            }
            "--retries" => {
                retries = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --retries needs a non-negative integer");
                    std::process::exit(2);
                }))
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
    let Some(path) = input else {
        eprintln!("error: no config file given (try --template)");
        std::process::exit(2);
    };

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    // A batch file is a JSON array of configs; a single config runs as a
    // one-element campaign. Dispatch on the leading token so a malformed
    // batch reports its own parse error, not the single-config one.
    let batched = text.trim_start().starts_with('[');
    let configs: Vec<ExperimentConfig> = if batched {
        serde_json::from_str::<Vec<ExperimentConfig>>(&text).unwrap_or_else(|e| {
            eprintln!("error: invalid config batch: {e}");
            std::process::exit(2);
        })
    } else {
        match serde_json::from_str::<ExperimentConfig>(&text) {
            Ok(cfg) => vec![cfg],
            Err(e) => {
                eprintln!("error: invalid config: {e}");
                std::process::exit(2);
            }
        }
    };

    let mut campaign = Campaign::from_configs(configs);
    if let Some(threads) = threads {
        campaign = campaign.threads(threads);
    }
    if let Err(e) = campaign.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
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

    // --resume / --retries switch to the fault-tolerant path; the plain
    // invocation keeps the fail-fast all-or-nothing behavior.
    let resilient = resume.is_some() || retries.is_some();
    let (results, failed) = if resilient {
        if let Some(journal) = &resume {
            campaign = campaign.with_checkpoint(journal);
        }
        campaign = campaign
            .retry(RetrySpec::attempts(retries.unwrap_or(0) + 1))
            .on_failure(|failure| eprintln!("FAILED {failure}"));
        let report = campaign.run_resilient().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        if report.restored > 0 {
            eprintln!(
                "restored {} completed cell(s) from the journal",
                report.restored
            );
        }
        let failed = !report.failures.is_empty();
        (report.results, failed)
    } else {
        let results = campaign.run().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        (results.into_iter().map(Some).collect(), false)
    };

    for result in results.iter().flatten() {
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
            serde_json::to_string_pretty(&results).unwrap()
        } else {
            serde_json::to_string_pretty(&results[0]).unwrap()
        };
        std::fs::write(&out, rendered).unwrap_or_else(|e| {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {out}");
    }
    if failed {
        eprintln!("error: some cells failed every attempt (see FAILED lines above)");
        std::process::exit(1);
    }
}
