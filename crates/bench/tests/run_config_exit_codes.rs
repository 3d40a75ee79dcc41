//! `run_config` has one path and three exit codes: 0, 1 (a cell failed
//! after validation), 2 (a config or the journal is unusable) — never 101.
//!
//! Every hostile value here used to pass `ExperimentConfig::validate` and
//! panic while the cell was being built: exit 101 under the plain
//! invocation, exit 1 under `--retries 0`. Both invocations must now agree,
//! on exit code and stdout. A failure validation cannot foresee (it depends
//! on the generated data) still ends the same way under both: a `FAILED`
//! line and exit 1.

use skiptrain_core::presets::{cifar_config, Scale};
use skiptrain_core::{
    AlgorithmSpec, DataSpec, ExperimentConfig, Schedule, TopologyScheduleSpec, TopologySpec,
};
use skiptrain_data::Partition;
use skiptrain_topology::Graph;
use std::path::PathBuf;
use std::process::{Command, Output};

/// The `--template` config at 8 nodes × 4 rounds.
fn template() -> ExperimentConfig {
    ExperimentConfig {
        name: "my-experiment".into(),
        nodes: 8,
        rounds: 4,
        algorithm: AlgorithmSpec::SkipTrain(Schedule::new(4, 4)),
        topology: TopologySpec::Regular { degree: 4 },
        ..cifar_config(Scale::Quick, 42)
    }
}

fn cifar_like(
    feature_dim: usize,
    shards_per_node: usize,
    modes_per_class: usize,
) -> ExperimentConfig {
    ExperimentConfig {
        data: DataSpec::CifarLike {
            feature_dim,
            samples_per_node: 80,
            test_samples: 800,
            shards_per_node,
            separation: 0.8,
            noise: 1.1,
            modes_per_class,
        },
        ..template()
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "skiptrain-run-config-{tag}-{}.json",
        std::process::id()
    ))
}

/// Runs `run_config <cfg> -o <out> [extra…]`, returning the process output
/// and the bytes of the result file (empty when none was written).
fn run_config(tag: &str, cfg: &ExperimentConfig, extra: &[&str]) -> (Output, Vec<u8>) {
    let (input, output) = (temp_path(tag), temp_path(&format!("{tag}-out")));
    std::fs::write(&input, serde_json::to_string(cfg).unwrap()).unwrap();
    let _ = std::fs::remove_file(&output);
    let out = Command::new(env!("CARGO_BIN_EXE_run_config"))
        .arg(&input)
        .arg("-o")
        .arg(&output)
        .args(extra)
        .output()
        .expect("run_config spawns");
    let written = std::fs::read(&output).unwrap_or_default();
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
    (out, written)
}

fn dirichlet(alpha: f32) -> ExperimentConfig {
    ExperimentConfig {
        data: DataSpec::CifarPartitioned {
            feature_dim: 32,
            samples_per_node: 80,
            test_samples: 800,
            partition: Partition::Dirichlet { alpha },
            separation: 0.8,
            noise: 1.1,
            modes_per_class: 4,
        },
        ..template()
    }
}

#[test]
fn a_valid_config_exits_0_with_or_without_retries() {
    let (plain, plain_json) = run_config("valid", &template(), &[]);
    let (retried, retried_json) = run_config("valid-retries", &template(), &["--retries", "0"]);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(retried.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&plain.stdout).starts_with("my-experiment: final accuracy"));
    assert_eq!(plain.stdout, retried.stdout);
    assert!(!plain_json.is_empty());
    assert_eq!(plain_json, retried_json);
}

#[test]
fn hostile_configs_exit_2_naming_the_run_with_or_without_retries() {
    let hostile = [
        (
            "degree-0",
            ExperimentConfig {
                topology: TopologySpec::Regular { degree: 0 },
                ..template()
            },
        ),
        (
            "ring-of-2",
            ExperimentConfig {
                nodes: 2,
                topology: TopologySpec::Ring,
                ..template()
            },
        ),
        ("feature-dim-0", cifar_like(0, 2, 4)),
        ("modes-0", cifar_like(32, 2, 0)),
        ("shards-0", cifar_like(32, 0, 4)),
        ("shards-over-samples", cifar_like(32, 81, 4)),
        ("dirichlet-alpha-0", dirichlet(0.0)),
        (
            "eval-samples-0",
            ExperimentConfig {
                eval_max_samples: 0,
                ..template()
            },
        ),
        (
            "cycle-graph-without-adjacency",
            ExperimentConfig {
                topology_schedule: TopologyScheduleSpec::Cycle(vec![
                    serde_json::from_str::<Graph>(r#"{"n": 8, "adj": []}"#).unwrap(),
                ]),
                ..template()
            },
        ),
    ];
    for (tag, cfg) in hostile {
        let (plain, _) = run_config(tag, &cfg, &[]);
        let (retried, _) = run_config(&format!("{tag}-retries"), &cfg, &["--retries", "0"]);
        for out in [&plain, &retried] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
            assert!(stderr.contains("campaign run #0"), "{tag}: {stderr}");
            assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
        }
        assert_eq!(plain.stdout, retried.stdout, "{tag}");
    }
}

#[test]
fn a_cell_that_fails_after_validation_exits_1_with_or_without_retries() {
    // a valid but extreme concentration: the seed-42 draw leaves node 0
    // without a sample, which only building the data can find out
    let cfg = dirichlet(1e-6);
    let (plain, _) = run_config("late-failure", &cfg, &[]);
    let (retried, _) = run_config("late-failure-retries", &cfg, &["--retries", "0"]);
    for out in [&plain, &retried] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains("FAILED cell #0 (`my-experiment`)"),
            "{stderr}"
        );
    }
    assert_eq!(plain.stdout, retried.stdout);
}
