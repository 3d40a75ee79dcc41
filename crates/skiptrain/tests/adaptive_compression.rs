//! Cross-crate scenarios for the per-link compression policy layer: the
//! `Uniform` policy must be bit-identical to the legacy global-codec path
//! at any worker count, per-link charged bytes must reconcile exactly with
//! the energy ledger under heterogeneous codecs, legacy experiment JSON
//! (no `compression` field) must keep running bit-identically, and the
//! DEAL-style energy-adaptive tier table must beat every fixed codec on
//! accuracy per harvested watt-hour on a diurnal battery fleet.

mod common;

use common::run_shared;
use skiptrain::prelude::*;

fn tiny(seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = 12;
    cfg.rounds = 16;
    cfg.eval_every = 16;
    cfg.eval_max_samples = 200;
    cfg
}

fn sim_params(cfg: &ExperimentConfig) -> usize {
    cfg.model_kind().build(0).param_count()
}

fn run_with_threads(cfg: &ExperimentConfig, data: &DataBundle, threads: usize) -> ExperimentResult {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(|| run_shared(cfg, data))
}

fn assert_bitwise_equal(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(
        a.final_test.mean_accuracy.to_bits(),
        b.final_test.mean_accuracy.to_bits(),
        "{what}: accuracy diverged"
    );
    assert_eq!(
        a.final_mean_model, b.final_mean_model,
        "{what}: mean model diverged"
    );
    assert_eq!(
        a.total_comm_wh.to_bits(),
        b.total_comm_wh.to_bits(),
        "{what}: comm energy diverged"
    );
    assert_eq!(
        a.total_training_wh.to_bits(),
        b.total_training_wh.to_bits(),
        "{what}: training energy diverged"
    );
    assert_eq!(
        a.total_wire_bytes, b.total_wire_bytes,
        "{what}: wire bytes diverged"
    );
}

/// The tentpole's backward-compatibility contract: a `CompressionSpec`
/// holding `Uniform(codec)` re-enters the exact legacy share/aggregate
/// code, so it must reproduce the legacy flat-`codec` run bit for bit —
/// on the dense, top-k, and error-feedback paths, at 1, 2, and 7 worker
/// threads.
#[test]
fn uniform_spec_is_bit_identical_to_legacy_codec_across_thread_pools() {
    let base = tiny(11);
    let k = sim_params(&base) / 16;
    let variants: [(&str, ModelCodec, Option<f32>); 3] = [
        ("dense", ModelCodec::DenseF32, None),
        ("top-k", ModelCodec::TopK { k }, None),
        ("top-k+ef", ModelCodec::TopK { k }, Some(1.0)),
    ];
    let data = base.data.build(base.nodes, base.seed);
    for (name, codec, beta) in variants {
        let mut legacy = base.clone();
        legacy.codec = codec;
        legacy.feedback_beta = beta;

        let mut spec = base.clone();
        spec.compression = Some(CompressionSpec {
            policy: CompressionPolicy::Uniform(codec),
            feedback_beta: beta,
            ..CompressionSpec::default()
        });

        let reference = run_with_threads(&legacy, &data, 1);
        for threads in [1usize, 2, 7] {
            let via_spec = run_with_threads(&spec, &data, threads);
            assert_bitwise_equal(
                &reference,
                &via_spec,
                &format!("{name} spec-vs-legacy at {threads} threads"),
            );
        }
    }
}

/// Adaptive policies take the per-link resolution path, which is still
/// receiver-parallel — results must not depend on the worker count.
#[test]
fn adaptive_policies_are_deterministic_across_thread_pools() {
    let mut base = tiny(12);
    base.topology_schedule = TopologyScheduleSpec::EdgeDropout { p: 0.3 };
    let floor_k = sim_params(&base) / 64;
    // the quantized per-edge paths too: frames folded into the sum
    // (a per-link table) and into link replicas (error feedback)
    let per_link = CompressionPolicy::PerLink {
        default: ModelCodec::QuantizedU8,
        links: Vec::new(),
    };
    let policies = [
        (CompressionPolicy::deal_tiers(floor_k), None),
        (
            CompressionPolicy::RarityAdaptive {
                base_k: floor_k,
                max_k: sim_params(&base) / 8,
            },
            None,
        ),
        (per_link, None),
        (
            CompressionPolicy::Uniform(ModelCodec::QuantizedU16),
            Some(1.0),
        ),
    ];
    let data = base.data.build(base.nodes, base.seed);
    for (policy, feedback_beta) in policies {
        let mut cfg = base.clone();
        cfg.compression = Some(CompressionSpec {
            policy: policy.clone(),
            feedback_beta,
            ..CompressionSpec::default()
        });
        let reference = run_with_threads(&cfg, &data, 1);
        assert!(reference.final_mean_model.iter().all(|v| v.is_finite()));
        for threads in [2usize, 7] {
            let result = run_with_threads(&cfg, &data, threads);
            assert_bitwise_equal(
                &reference,
                &result,
                &format!("{} at {threads} threads", policy.name()),
            );
        }
    }
}

/// γ = 1 is the bit-exact legacy update; γ < 1 damps consensus — the
/// models move, stay finite, and the run stays deterministic.
#[test]
fn consensus_gamma_damps_mixing_without_breaking_determinism() {
    let base = tiny(13);
    let data = base.data.build(base.nodes, base.seed);
    let run_gamma = |gamma: f32| {
        let mut cfg = base.clone();
        cfg.compression = Some(CompressionSpec {
            gamma,
            ..CompressionSpec::default()
        });
        run_shared(&cfg, &data)
    };
    let plain = run_shared(&base, &data);
    let unit = run_gamma(1.0);
    assert_bitwise_equal(&plain, &unit, "gamma=1 vs legacy");

    let damped = run_gamma(0.5);
    let damped_again = run_gamma(0.5);
    assert_bitwise_equal(&damped, &damped_again, "gamma=0.5 reruns");
    assert!(damped.final_mean_model.iter().all(|v| v.is_finite()));
    assert_ne!(
        damped.final_mean_model, unit.final_mean_model,
        "gamma=0.5 must change the consensus trajectory"
    );
}

/// Satellite audit: under a heterogeneous `PerLink` table (mixed top-k
/// budgets, quantized default, one dense link) with a nominal model much
/// larger than the simulated one, the per-link charged bytes must sum to
/// exactly what the ledger recorded per node and in total.
#[test]
fn per_link_charged_bytes_reconcile_with_ledger() {
    use skiptrain::data::synth::{MixtureSpec, MixtureTask};

    const NODES: usize = 8;
    const ROUNDS: usize = 5;
    const NOMINAL: usize = 1_000_000;

    let graph = Graph::complete(NODES);
    let task = MixtureTask::new(
        MixtureSpec {
            num_classes: 10,
            feature_dim: 32,
            modes_per_class: 2,
            separation: 1.0,
            noise: 0.9,
        },
        5,
    );
    let datasets = (0..NODES).map(|i| task.sample(40, i as u64)).collect();
    let models: Vec<_> = (0..NODES)
        .map(|i| {
            ModelKind::Mlp {
                dims: vec![32, 24, 10],
            }
            .build(5 + i as u64)
        })
        .collect();
    let param_count = models[0].param_count();
    let mixing = MixingMatrix::metropolis_hastings(&graph);

    let links = vec![
        LinkCodec {
            src: 0,
            dst: 1,
            codec: ModelCodec::TopK { k: 7 },
        },
        LinkCodec {
            src: 1,
            dst: 0,
            codec: ModelCodec::TopK { k: 311 },
        },
        LinkCodec {
            src: 2,
            dst: 3,
            codec: ModelCodec::DenseF32,
        },
        LinkCodec {
            src: 3,
            dst: 2,
            codec: ModelCodec::QuantizedU16,
        },
        LinkCodec {
            src: 4,
            dst: 5,
            codec: ModelCodec::TopK { k: 63 },
        },
    ];
    let default = ModelCodec::QuantizedU8;
    let codec_for = |src: usize, dst: usize| {
        links
            .iter()
            .find(|l| l.src as usize == src && l.dst as usize == dst)
            .map(|l| l.codec)
            .unwrap_or(default)
    };

    let mut config = SimulationConfig::minimal(5, 16, 2, 0.5);
    config.compression = CompressionPolicy::PerLink {
        default,
        links: links.clone(),
    };
    config.nominal_params = Some(NOMINAL);
    let mut sim = Simulation::new(models, datasets, graph, mixing.clone(), config);
    let actions = vec![RoundAction::SyncOnly; NODES];
    for _ in 0..ROUNDS {
        sim.try_run_round(&actions, None, None)
            .expect("static round runs");
    }

    // Reconstruct the expected ledger from the mixing structure and the
    // link table: every effective directed edge (j -> i) charges the
    // link's codec bytes once per round, tx at j and rx at i.
    let mut expected_tx = [0u64; NODES];
    let mut expected_rx = [0u64; NODES];
    for (i, rx_slot) in expected_rx.iter_mut().enumerate() {
        for &(j, _) in mixing.row(i) {
            let j = j as usize;
            if j == i {
                continue;
            }
            let bytes = codec_for(j, i).charged_message_bytes(param_count, NOMINAL);
            expected_tx[j] += bytes * ROUNDS as u64;
            *rx_slot += bytes * ROUNDS as u64;
        }
    }
    let ledger = sim.ledger();
    for node in 0..NODES {
        assert_eq!(
            ledger.node_tx_bytes(node),
            expected_tx[node],
            "node {node} tx bytes"
        );
        assert_eq!(
            ledger.node_rx_bytes(node),
            expected_rx[node],
            "node {node} rx bytes"
        );
    }
    assert_eq!(ledger.total_tx_bytes(), expected_tx.iter().sum::<u64>());
    assert_eq!(ledger.total_rx_bytes(), expected_rx.iter().sum::<u64>());
    // The top-k nominal scaling keeps the charged fraction: keeping 7 of
    // param_count simulated parameters charges like a top-k of
    // 7/param_count of the nominal model, and never rounds to zero.
    let k7 = ModelCodec::TopK { k: 7 }.charged_message_bytes(param_count, NOMINAL);
    let scaled_k = (7 * NOMINAL / param_count).max(1);
    assert_eq!(k7, ModelCodec::TopK { k: scaled_k }.message_bytes(NOMINAL));
    let k1 = ModelCodec::TopK { k: 1 }.charged_message_bytes(NOMINAL, 64);
    assert!(k1 >= ModelCodec::TopK { k: 1 }.message_bytes(64));
}

/// Legacy experiment JSON predates the `compression` field entirely; it
/// must deserialize (spec absent), resolve through the legacy flat
/// `codec`/`feedback_beta` fields, and run bit-identically to the
/// in-memory config it was serialized from.
#[test]
fn legacy_json_without_compression_field_runs_bit_identically() {
    let mut cfg = tiny(14);
    cfg.codec = ModelCodec::TopK {
        k: sim_params(&cfg) / 16,
    };
    cfg.feedback_beta = Some(1.0);

    let mut value = serde_json::to_value(&cfg);
    match &mut value {
        serde_json::Value::Object(entries) => {
            let before = entries.len();
            entries.retain(|(k, _)| k != "compression");
            assert_eq!(
                entries.len(),
                before - 1,
                "modern config JSON carries the compression field"
            );
        }
        other => panic!("config must serialize to an object, got {other:?}"),
    }
    let legacy: ExperimentConfig =
        serde_json::from_str(&serde_json::to_string(&value).expect("json renders"))
            .expect("pre-policy JSON must still load");
    assert!(legacy.compression.is_none());

    let effective = legacy.effective_compression();
    assert_eq!(effective.policy, CompressionPolicy::Uniform(cfg.codec));
    assert_eq!(effective.gamma, 1.0);
    assert_eq!(effective.feedback_beta, Some(1.0));

    let data = cfg.data.build(cfg.nodes, cfg.seed);
    let a = run_shared(&cfg, &data);
    let b = run_shared(&legacy, &data);
    assert_bitwise_equal(&a, &b, "legacy JSON vs modern config");
}

/// Invalid policy shapes must surface as typed `ConfigError`s at build
/// time, not panics inside the engine.
#[test]
fn invalid_compression_specs_are_rejected_with_typed_errors() {
    let build = |spec: CompressionSpec| {
        let mut cfg = tiny(15);
        cfg.compression = Some(spec);
        cfg.validate()
    };
    let err = build(CompressionSpec {
        gamma: 0.0,
        ..CompressionSpec::default()
    })
    .expect_err("gamma 0 is out of range");
    assert!(
        matches!(err, ConfigError::InvalidConsensusGamma { .. }),
        "{err:?}"
    );

    let err = build(CompressionSpec {
        policy: CompressionPolicy::RarityAdaptive {
            base_k: 9,
            max_k: 3,
        },
        ..CompressionSpec::default()
    })
    .expect_err("max_k below base_k");
    assert!(
        matches!(err, ConfigError::InvalidRarityBounds { .. }),
        "{err:?}"
    );

    let err = build(CompressionSpec {
        policy: CompressionPolicy::EnergyAdaptive { tiers: vec![] },
        ..CompressionSpec::default()
    })
    .expect_err("empty tier table");
    assert!(matches!(err, ConfigError::InvalidEnergyTiers), "{err:?}");

    let err = build(CompressionSpec {
        policy: CompressionPolicy::PerLink {
            default: ModelCodec::DenseF32,
            links: vec![LinkCodec {
                src: 2,
                dst: 99,
                codec: ModelCodec::DenseF32,
            }],
        },
        ..CompressionSpec::default()
    })
    .expect_err("dst outside the fleet");
    assert!(
        matches!(err, ConfigError::LinkCodecOutOfRange { .. }),
        "{err:?}"
    );
}

/// Pinned acceptance scenario: on a diurnal-harvest battery fleet under an
/// `EdgeDropout` schedule, with communication priced as a first-order
/// drain next to training, the DEAL tier table must strictly beat every
/// fixed global codec on accuracy per harvested watt-hour while putting
/// no more bytes on the wire than the best of them.
///
/// Built directly on the engine so the comm:train price ratio is a free
/// knob (the experiment runner pins the paper's radio fit, under which
/// training dwarfs communication and codec choice cannot move the
/// energy outcome). The regime: a u8-tier share phase costs ~8 training
/// rounds, the diurnal harvest replaces ~a third of a u8-tier round,
/// and the battery holds ~2 rounds of charge — so a fixed quantized
/// fleet is duty-cycled to ~35%, a fixed dense fleet starves, a fixed
/// sparse fleet runs flat-out but degrades every message, and the
/// adaptive fleet rides the tier table: full-rate u8 while charged, the
/// cheap top-k floor through the night, never missing a training round.
#[test]
fn energy_adaptive_beats_every_fixed_codec_per_harvested_wh() {
    use skiptrain::data::partition::partition_indices;
    use skiptrain::data::synth::{MixtureSpec, MixtureTask};
    use skiptrain::energy::comm::CommEnergyModel;
    use skiptrain::topology::regular::circulant;
    use skiptrain::topology::{ScheduledTopology, TopologySchedule};

    const NODES: usize = 12;
    const DEGREE: usize = 4;
    const ROUNDS: usize = 64;
    const SEED: u64 = 41;
    const DROPOUT_P: f64 = 0.3;
    /// Mean per-node training drain per round, Wh.
    const TRAIN_WH: f64 = 0.5e-3;
    /// Per-node share-phase drain per round at the u8 tier, Wh (~8x the
    /// training drain: communication dominates, as for large models on
    /// radio-constrained devices).
    const COMM_U8_WH: f64 = 4.0e-3;
    /// Mean harvest per node per round, Wh (~a third of a u8-tier round,
    /// so the rich tier is affordable only part-time while the famine
    /// tier plus training always is).
    const HARVEST_WH: f64 = 1.5e-3;
    const ROUND_S: f64 = 60.0;

    let task = MixtureTask::new(MixtureSpec::cifar_like(32), SEED);
    let (train_pool, test_pool) = (task.sample(NODES * 80, 1), task.sample(512, 2));
    // The paper's 2-shard label skew: a fleet mixing only sparse
    // messages cannot reach consensus, and a node that misses a round
    // leaves its classes underrepresented in the mean model.
    let shards = partition_indices(
        train_pool.labels(),
        train_pool.num_classes(),
        NODES,
        &Partition::Shards { shards_per_node: 2 },
        SEED,
    );
    let datasets: Vec<Dataset> = shards.iter().map(|idx| train_pool.subset(idx)).collect();

    // A sparse ring-of-chords base graph: with only four neighbors, a
    // node that sits out a round genuinely fragments the gossip graph —
    // the scarcity that makes staying alive worth degraded messages.
    let graph = circulant(NODES, DEGREE);
    let mixing = MixingMatrix::metropolis_hastings(&graph);
    let model = ModelKind::Mlp {
        dims: vec![32, 24, 10],
    };
    let params = model.build(0).param_count();
    let u8_bytes = ModelCodec::QuantizedU8.message_bytes(params);
    // Expected effective directed degree under the dropout schedule; a
    // node pays tx per out-edge and rx per in-edge.
    let eff_degree = DEGREE as f64 * (1.0 - DROPOUT_P);
    let jpb = COMM_U8_WH * 3600.0 / (2.0 * eff_degree * u8_bytes as f64);
    let peak_watts = std::f64::consts::PI * HARVEST_WH * 3600.0 / ROUND_S;
    let capacity_wh = 2.0 * (TRAIN_WH + COMM_U8_WH);

    let famine_k = (params / 256).max(1);
    let fixed: Vec<(&str, ModelCodec)> = vec![
        ("dense", ModelCodec::DenseF32),
        ("u16", ModelCodec::QuantizedU16),
        ("u8", ModelCodec::QuantizedU8),
        ("top-k/16", ModelCodec::TopK { k: params / 16 }),
        ("top-k/64", ModelCodec::TopK { k: params / 64 }),
        ("top-k/256", ModelCodec::TopK { k: famine_k }),
    ];
    // The decremental tier table: full-rate quantization while the
    // battery is comfortable, the cheap top-k floor once it sags — the
    // famine tier costs less than the harvest replaces, so adaptive
    // nodes bank night-time charge into completed training rounds.
    let tiers = vec![
        EnergyTier {
            min_charge_fraction: 0.3,
            codec: ModelCodec::QuantizedU8,
        },
        EnergyTier {
            min_charge_fraction: 0.0,
            codec: ModelCodec::TopK { k: famine_k },
        },
    ];

    struct Outcome {
        accuracy: f32,
        wire_bytes: u64,
        metric: f64,
        brownouts: u64,
    }
    let run_policy = |policy: CompressionPolicy| -> Outcome {
        let models = (0..NODES)
            .map(|i| model.build(SEED + i as u64))
            .collect::<Vec<_>>();
        let mut config = SimulationConfig::minimal(SEED, 16, 2, 0.1);
        config.compression = policy;
        // CHOCO-SGD error feedback in every cell: receivers aggregate the
        // dense per-link replica, so a sparse famine-tier message refines
        // the last-delivered estimate instead of zero-filling 98% of the
        // model. The replicas are codec-agnostic — the adaptive cells
        // exercise feedback across mid-flight codec switches (the
        // refactor's core contract).
        config.feedback_beta = Some(1.0);
        config.training_energy_wh = (0..NODES)
            .map(|i| TRAIN_WH * (0.8 + 0.05 * (i % 8) as f64))
            .collect();
        config.comm_energy = CommEnergyModel {
            tx_joules_per_byte: jpb,
            rx_joules_per_byte: jpb,
        };
        config.battery = Some(BatterySetup {
            state: BatteryState::with_initial_fraction(vec![capacity_wh; NODES], 0.6),
            trace: HarvestTrace::new(
                HarvestProfile::Diurnal {
                    peak_watts,
                    period_rounds: 16.0,
                },
                ROUND_S,
                NODES,
                SEED,
                0.25,
            ),
            policy: BatteryPolicy::Threshold { min_fraction: 0.25 },
            node_policies: None,
        });
        let mut sim = Simulation::new(
            models,
            datasets.clone(),
            graph.clone(),
            mixing.clone(),
            config,
        );
        let mut sched = ScheduledTopology::new(
            graph.clone(),
            TopologySchedule::EdgeDropout {
                p: DROPOUT_P,
                seed: SEED,
            },
        );
        let actions = vec![RoundAction::Train; NODES];
        for _ in 0..ROUNDS {
            let round_mixing = sched.mixing_for_round(sim.round());
            sim.try_run_round(&actions, Some(round_mixing), None)
                .expect("scheduled graph matches the fleet");
        }
        let accuracy = sim.evaluate(&test_pool, 512).mean_accuracy;
        let battery = sim.battery_state().expect("battery gating enabled");
        // Every cell shares the harvest trace, and `harvested` counts the
        // energy *offered* (pre-clip), so the denominator is policy-
        // independent: the metric ranks cells by the accuracy each one
        // bought from the same incident energy.
        let denom = battery.total_harvested_wh().max(battery.total_drained_wh());
        assert!(denom > 0.0, "harvest must flow for the metric to exist");
        Outcome {
            accuracy,
            wire_bytes: sim.ledger().total_tx_bytes(),
            metric: accuracy as f64 / denom,
            brownouts: sim.battery_brownouts().unwrap_or(0),
        }
    };

    let adaptive = run_policy(CompressionPolicy::EnergyAdaptive {
        tiers: tiers.clone(),
    });
    eprintln!(
        "adaptive: acc {:.4}  wire {:>9} B  brownouts {:>3}  metric {:.4}",
        adaptive.accuracy, adaptive.wire_bytes, adaptive.brownouts, adaptive.metric
    );
    let mut best_fixed_metric = f64::NEG_INFINITY;
    let mut best_fixed_bytes = 0u64;
    for (name, codec) in &fixed {
        let r = run_policy(CompressionPolicy::Uniform(*codec));
        eprintln!(
            "{name:>8}: acc {:.4}  wire {:>9} B  brownouts {:>3}  metric {:.4}",
            r.accuracy, r.wire_bytes, r.brownouts, r.metric
        );
        assert!(
            adaptive.metric > r.metric,
            "energy-adaptive ({:.4} acc/Wh, {} wire B) must strictly beat \
             fixed {name} ({:.4} acc/Wh, {} wire B)",
            adaptive.metric,
            adaptive.wire_bytes,
            r.metric,
            r.wire_bytes
        );
        if r.metric > best_fixed_metric {
            best_fixed_metric = r.metric;
            best_fixed_bytes = r.wire_bytes;
        }
    }
    assert!(
        adaptive.wire_bytes <= best_fixed_bytes,
        "energy-adaptive must not out-spend the best fixed codec on the wire: \
         {} B vs {} B",
        adaptive.wire_bytes,
        best_fixed_bytes
    );
}
