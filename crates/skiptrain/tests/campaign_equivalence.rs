//! Equivalence guarantees for the experiment layer: the three ways of
//! running a config (`Experiment::run`, `run_with_observers`, a one-cell
//! `Campaign`) must agree byte for byte, and the parallel `grid_search`
//! must match serial per-cell execution exactly.

mod common;

use common::{run, run_shared};
use skiptrain::prelude::*;
use skiptrain_core::sweep::grid_search;
use std::ops::ControlFlow;

fn quick(seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = 10;
    cfg.rounds = 12;
    cfg.eval_every = 4;
    cfg.eval_max_samples = 150;
    cfg.data = DataSpec::CifarLike {
        feature_dim: 12,
        samples_per_node: 40,
        test_samples: 400,
        shards_per_node: 2,
        separation: 1.2,
        noise: 0.8,
        modes_per_class: 2,
    };
    cfg.hidden_dim = 12;
    cfg.local_steps = 4;
    cfg.record_mean_model = true;
    cfg
}

/// `cfg` as an async-gossip cell with non-trivial timing and churn, so the
/// deadline path (late edges, absences) is what the campaign must reproduce.
fn gossip(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.name = format!("{}/async-q0.5", cfg.name);
    cfg.algorithm = AlgorithmSpec::AsyncGossip {
        activation_prob: 0.5,
    };
    cfg.timing.latency = LatencyModel::Seeded {
        mean_ticks: BASE_TRAIN_TICKS / 4,
        jitter: 0.8,
    };
    cfg.churn = Some(ChurnSpec {
        leave_prob: 0.1,
        rejoin_prob: 0.5,
    });
    cfg
}

#[test]
fn builder_and_campaign_reproduce_legacy_results_byte_identically() {
    for cfg in [quick(3), gossip(quick(3))] {
        // (A) one config on its own data
        let experiment = Experiment::from_config(cfg.clone()).expect("valid");
        let own_data = experiment.run().expect("run completes");

        // (B) one config on a bundle the caller holds
        let data = experiment.build_data();
        let shared_bundle = run_with_observers(&cfg, &data, &mut []).expect("valid");

        // (C) many configs, here one
        let via_campaign = Campaign::new()
            .push(cfg.clone())
            .run()
            .expect("valid")
            .remove(0);

        let reference = serde_json::to_string(&own_data).unwrap();
        for (label, result) in [
            ("run_with_observers", &shared_bundle),
            ("Campaign", &via_campaign),
        ] {
            let serialized = serde_json::to_string(result).unwrap();
            assert_eq!(
                serialized, reference,
                "{}: {label} diverged from Experiment::run",
                cfg.name
            );
        }
    }
}

#[test]
fn gossip_cells_match_the_per_cell_grid_and_resume_from_a_journal() {
    // Async gossip is a config like any other: campaign cells equal the
    // per-cell `Experiment::run` grid, land in the journal, and a resumed
    // campaign restores them without re-running — byte for byte.
    let configs = vec![quick(21), gossip(quick(21)), gossip(quick(22))];
    let grid: Vec<ExperimentResult> = configs.iter().map(run).collect();
    assert!(
        grid[1].events.late_messages > 0 && grid[1].events.leaves > 0,
        "the gossip fixture must exercise the deadline and churn"
    );
    let grid: Vec<String> = grid
        .iter()
        .map(|result| serde_json::to_string(result).unwrap())
        .collect();
    let path = std::env::temp_dir().join(format!(
        "skiptrain-equivalence-gossip-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let assert_matches_grid = |report: &skiptrain_core::CampaignReport, ctx: &str| {
        assert!(report.is_complete(), "{ctx}");
        for (cell, reference) in report.results.iter().zip(&grid) {
            let serialized = serde_json::to_string(cell.as_ref().unwrap()).unwrap();
            assert_eq!(&serialized, reference, "{ctx}");
        }
    };

    let first = Campaign::from_configs(configs.clone())
        .with_checkpoint(&path)
        .run_resilient()
        .unwrap();
    assert_eq!(first.restored, 0);
    assert_matches_grid(&first, "first run");

    // interrupted after one cell: the rest re-run and still match
    let journal = std::fs::read_to_string(&path).unwrap();
    let kept: Vec<&str> = journal.lines().take(2).collect();
    let partial = path.with_extension("partial.jsonl");
    std::fs::write(&partial, format!("{}\n", kept.join("\n"))).unwrap();
    let resumed = Campaign::from_configs(configs.clone())
        .with_checkpoint(&partial)
        .run_resilient()
        .unwrap();
    assert_eq!(resumed.restored, 1);
    assert_matches_grid(&resumed, "resumed after one cell");

    // the full journal restores every cell and runs nothing
    let restored = Campaign::from_configs(configs)
        .with_checkpoint(&path)
        .observe_with(|_, _| panic!("restored cells must not re-run"))
        .run_resilient()
        .unwrap();
    assert_eq!(restored.restored, 3);
    assert_matches_grid(&restored, "fully restored");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&partial);
}

#[test]
fn parallel_grid_search_matches_serial_baseline_cell_for_cell() {
    let base = quick(7);
    let gammas = [1usize, 2];

    // Serial baseline: the seed implementation — one shared bundle, cells
    // run one after another in row-major (Γ_sync, Γ_train) order.
    let data = base.data.build(base.nodes, base.seed);
    let mut serial = Vec::new();
    for &gs in &gammas {
        for &gt in &gammas {
            let mut cfg = base.clone();
            cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(gt, gs));
            cfg.name = format!("{}/sweep-gt{gt}-gs{gs}", base.name);
            cfg.eval_every = usize::MAX;
            let result = run_shared(&cfg, &data);
            serial.push((gt, gs, result));
        }
    }

    // Parallel path: grid_search runs the same cells through a Campaign.
    let sweep = grid_search(&base, &gammas).expect("valid grid, no failed cell");
    assert_eq!(sweep.cells.len(), serial.len());

    for ((gt, gs, reference), cell) in serial.iter().zip(&sweep.cells) {
        assert_eq!(
            (cell.gamma_train, cell.gamma_sync),
            (*gt, *gs),
            "cell order changed"
        );
        assert_eq!(
            cell.val_accuracy.to_bits(),
            reference.final_val_accuracy.to_bits(),
            "validation accuracy diverged at ({gt}, {gs})"
        );
        assert_eq!(
            cell.test_accuracy.to_bits(),
            reference.final_test.mean_accuracy.to_bits(),
            "test accuracy diverged at ({gt}, {gs})"
        );
        assert_eq!(
            cell.training_energy_wh.to_bits(),
            reference.total_training_wh.to_bits(),
            "training energy diverged at ({gt}, {gs})"
        );
    }
}

#[test]
fn campaign_worker_count_does_not_change_results() {
    let configs: Vec<ExperimentConfig> = (0..3)
        .map(|i| {
            let mut cfg = quick(11);
            cfg.name = format!("w{i}");
            cfg.seed = 100 + i as u64;
            cfg
        })
        .collect();
    let serial = Campaign::from_configs(configs.clone())
        .threads(1)
        .run()
        .unwrap();
    let parallel = Campaign::from_configs(configs).threads(8).run().unwrap();
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "thread count changed a result"
        );
    }
}

#[test]
fn resilient_campaign_with_faults_matches_clean_run_on_surviving_cells() {
    // Cross-crate resilience: a campaign where one cell always panics and
    // one recovers on retry must leave the healthy cells' results
    // byte-identical to a fault-free campaign, at any worker count.
    let configs: Vec<ExperimentConfig> = (0..4)
        .map(|i| {
            let mut cfg = quick(11);
            cfg.name = format!("cell-{i}");
            cfg.seed = 200 + i as u64;
            cfg
        })
        .collect();
    let clean = Campaign::from_configs(configs.clone()).run().unwrap();
    for threads in [1usize, 4] {
        let report = Campaign::from_configs(configs.clone())
            .threads(threads)
            .retry(skiptrain_core::RetrySpec::attempts(2))
            .observe_with(|_, cfg| {
                if cfg.name == "cell-2" {
                    panic!("permanent fault");
                }
                if cfg.seed == 201 {
                    panic!("transient fault on the configured seed");
                }
                Vec::new()
            })
            .run_resilient()
            .unwrap();
        assert_eq!(report.failures.len(), 1, "threads={threads}");
        assert_eq!(report.failures[0].name, "cell-2");
        for (i, cell) in report.results.iter().enumerate() {
            if i == 2 {
                assert!(cell.is_none(), "threads={threads}: doomed cell completed");
            } else if i == 1 {
                // Recovered on the retry seed: equal to a fresh run there.
                let mut fresh = configs[1].clone();
                fresh.seed = skiptrain_core::retry_seed(201, 2);
                let fresh = run(&fresh);
                assert_eq!(
                    serde_json::to_string(cell.as_ref().unwrap()).unwrap(),
                    serde_json::to_string(&fresh).unwrap(),
                    "threads={threads}: retried cell diverged from fresh run"
                );
            } else {
                assert_eq!(
                    serde_json::to_string(cell.as_ref().unwrap()).unwrap(),
                    serde_json::to_string(&clean[i]).unwrap(),
                    "threads={threads}: healthy cell #{i} diverged under faults"
                );
            }
        }
    }
}

/// Breaks at the first evaluation.
struct StopAtFirstEval {
    triggered_at: Option<usize>,
}

impl RoundObserver for StopAtFirstEval {
    fn on_eval(&mut self, _sim: &mut Simulation, report: &EvalReport<'_>) -> ControlFlow<()> {
        self.triggered_at.get_or_insert(report.round);
        ControlFlow::Break(())
    }
}

/// Breaks at the end of round `self.0` (0-based).
struct StopAfterRound(usize);

impl RoundObserver for StopAfterRound {
    fn on_round_end(&mut self, _sim: &mut Simulation, report: &RoundReport<'_>) -> ControlFlow<()> {
        if report.round == self.0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

#[test]
fn early_stop_observer_truncates_the_run() {
    let cfg = quick(13);
    let data = cfg.data.build(cfg.nodes, cfg.seed);

    let mut stop = StopAtFirstEval { triggered_at: None };
    let result = run_with_observers(&cfg, &data, &mut [&mut stop]).expect("valid run");
    // eval_every = 4 -> the first evaluation happens after round 4 and
    // stops the run there.
    assert_eq!(stop.triggered_at, Some(4));
    assert_eq!(result.rounds, 4);
    assert_eq!(result.test_curve.len(), 1);

    // An `on_round_end` break stops at that round too, off the evaluation
    // cadence, and the stopped run still gets its final evaluation.
    let mut stop = StopAfterRound(6);
    let result = run_with_observers(&cfg, &data, &mut [&mut stop]).expect("valid run");
    assert_eq!(result.rounds, 7);
    let evaluated: Vec<usize> = result.test_curve.iter().map(|p| p.round).collect();
    assert_eq!(evaluated, [4, 7]);

    // Without the observer the same experiment runs to completion.
    let full = run_shared(&cfg, &data);
    assert_eq!(full.rounds, 12);
}

/// Collects every round's `RoundReport` deltas.
#[derive(Default)]
struct RoundDeltas {
    trained_nodes: Vec<usize>,
    training_wh: f64,
    comm_wh: f64,
}

impl RoundObserver for RoundDeltas {
    fn on_round_end(&mut self, _sim: &mut Simulation, report: &RoundReport<'_>) -> ControlFlow<()> {
        self.trained_nodes.push(report.trained_nodes);
        self.training_wh += report.round_training_wh;
        self.comm_wh += report.round_comm_wh;
        ControlFlow::Continue(())
    }
}

#[test]
fn energy_trace_observer_matches_ledger_totals() {
    let cfg = quick(17);
    let data = cfg.data.build(cfg.nodes, cfg.seed);

    let mut trace = RoundDeltas::default();
    let result = run_with_observers(&cfg, &data, &mut [&mut trace]).expect("valid run");

    assert_eq!(trace.trained_nodes.len(), cfg.rounds);
    assert!(
        (trace.training_wh - result.total_training_wh).abs() < 1e-9,
        "per-round stream must sum to the end-of-run total"
    );
    assert!(
        (trace.comm_wh - result.total_comm_wh).abs() < 1e-9,
        "per-round comm stream must sum to the end-of-run total"
    );
    let streamed_events: u64 = trace.trained_nodes.iter().map(|&n| n as u64).sum();
    assert_eq!(streamed_events, result.node_train_events);
}
