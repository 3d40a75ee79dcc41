//! Perf-gate harness: runs the round-loop / SGD / codec scenarios at
//! pinned configurations and emits the machine-readable
//! `BENCH_round_loop.json` perf trajectory (schema documented in
//! `skiptrain_bench::perf`).
//!
//! ```text
//! perf_report [--quick] [--out PATH]
//!
//! --quick   CI smoke mode: few iterations per scenario (same pinned
//!           configs, noisier numbers) so the schema gate stays cheap
//! --out     report path (default: BENCH_round_loop.json)
//! ```
//!
//! The binary always validates the report it just wrote against the
//! schema and exits non-zero on any violation, so the CI step doubles as
//! the schema gate.

use serde_json::Value;
use skiptrain_bench::perf::{
    allocated_bytes, build_report, json_object, measure, validate_report,
    validate_required_scenarios, CountingAllocator, ScenarioMeasurement, REQUIRED_SCENARIOS,
};
use skiptrain_data::synth::{MixtureSpec, MixtureTask};
use skiptrain_energy::battery::{BatteryPolicy, BatterySetup, BatteryState};
use skiptrain_energy::trace::{HarvestProfile, HarvestTrace};
use skiptrain_engine::transport::{
    corrupt_frame_in_place, decode_frame_into, encode_message_with, MessageFate,
};
use skiptrain_engine::{
    ChurnModel, CompressionPolicy, ComputeProfile, DecodeScratch, EncodeScratch, EventEngine,
    LatencyModel, ModelCodec, RoundAction, RoundSemantics, Simulation, SimulationConfig,
    TransportKind, BASE_TRAIN_TICKS,
};
use skiptrain_linalg::compress::{compress_with_feedback_top_k, FeedbackScratch};
use skiptrain_linalg::Matrix;
use skiptrain_nn::sgd::SgdConfig;
use skiptrain_nn::zoo::ModelKind;
use skiptrain_nn::{Sequential, Sgd, SoftmaxCrossEntropy};
use skiptrain_topology::regular::random_regular;
use skiptrain_topology::{MixingMatrix, ScheduledTopology, TopologySchedule};
use std::hint::black_box;
use std::process::Command;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Args {
    quick: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_round_loop.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--out" => {
                args.out = it.next().unwrap_or_else(|| {
                    eprintln!("missing value for --out");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown flag '{other}'; usage: perf_report [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    args
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One SGD step (forward + backward + update) on a synthetic batch.
fn sgd_step_scenario(
    name: &str,
    mut model: Sequential,
    batch: usize,
    classes: usize,
    config: Value,
    warmup: usize,
    iters: usize,
) -> ScenarioMeasurement {
    let loss = SoftmaxCrossEntropy::new(classes);
    let mut opt = Sgd::new(SgdConfig::plain(0.1));
    let x = Matrix::from_fn(batch, model.input_dim(), |r, c| {
        ((r * 31 + c) as f32).sin() * 0.3
    });
    let y: Vec<u32> = (0..batch).map(|i| (i % classes) as u32).collect();
    let mut grad = Matrix::zeros(0, 0);
    measure(name, config, warmup, iters, || {
        model.zero_grads();
        let value = {
            let logits = model.forward(&x, true);
            loss.loss_and_grad(logits, &y, &mut grad)
        };
        model.backward(&grad);
        opt.step(&mut model);
        black_box(value);
    })
}

/// The pinned 64-node mixture-MLP simulation the `round_scaling` bench
/// also uses — the whole-round hot path (train + share + aggregate).
fn build_round_sim(n: usize, seed: u64) -> Simulation {
    let graph = random_regular(n, 6, seed);
    build_sim_on(graph, seed, SimulationConfig::minimal(seed, 16, 5, 0.5))
}

/// The pinned mixture-MLP fleet on an explicit graph and config (the
/// dynamic-topology scenario supplies a dense base graph and a
/// feedback-compressed config).
fn build_sim_on(
    graph: skiptrain_topology::Graph,
    seed: u64,
    config: SimulationConfig,
) -> Simulation {
    let n = graph.len();
    let task = MixtureTask::new(
        MixtureSpec {
            num_classes: 10,
            feature_dim: 32,
            modes_per_class: 2,
            separation: 1.0,
            noise: 0.9,
        },
        seed,
    );
    let datasets = (0..n).map(|i| task.sample(60, i as u64)).collect();
    let models = (0..n)
        .map(|i| {
            ModelKind::Mlp {
                dims: vec![32, 24, 10],
            }
            .build(seed + i as u64)
        })
        .collect();
    let mixing = MixingMatrix::metropolis_hastings(&graph);
    Simulation::new(models, datasets, graph, mixing, config)
}

fn main() {
    let args = parse_args();
    let mode = if args.quick { "quick" } else { "full" };
    // (warmup, iters) per scenario family, scaled down in quick mode
    let scale = |warmup: usize, iters: usize| {
        if args.quick {
            (warmup.div_ceil(4), iters.div_ceil(10).max(2))
        } else {
            (warmup, iters)
        }
    };
    let mut scenarios: Vec<ScenarioMeasurement> = Vec::new();

    // --- SGD step scenarios -------------------------------------------
    let (warmup, iters) = scale(10, 300);
    scenarios.push(sgd_step_scenario(
        "sgd_step_mlp_medium_90k",
        skiptrain_nn::zoo::mlp(&[128, 512, 128, 10], 1),
        32,
        10,
        json_object(vec![
            ("model", Value::String("mlp-128-512-128-10".into())),
            ("batch", Value::UInt(32)),
            ("mode", Value::String(mode.into())),
        ]),
        warmup,
        iters,
    ));
    let (warmup, iters) = scale(2, 20);
    scenarios.push(sgd_step_scenario(
        "sgd_step_cnn_femnist",
        skiptrain_nn::zoo::femnist_cnn(1),
        16,
        62,
        json_object(vec![
            ("model", Value::String("femnist-leaf-cnn".into())),
            ("batch", Value::UInt(16)),
            ("mode", Value::String(mode.into())),
        ]),
        warmup,
        iters,
    ));

    // --- round-loop scenarios -----------------------------------------
    let (warmup, iters) = scale(4, 40);
    {
        let mut sim = build_round_sim(64, 1);
        let actions = vec![RoundAction::Train; 64];
        scenarios.push(measure(
            "round_loop_train_64",
            json_object(vec![
                ("nodes", Value::UInt(64)),
                ("degree", Value::UInt(6)),
                ("model", Value::String("mlp-32-24-10".into())),
                ("batch", Value::UInt(16)),
                ("local_steps", Value::UInt(5)),
                ("mode", Value::String(mode.into())),
            ]),
            warmup,
            iters,
            || {
                sim.run_round(black_box(&actions));
            },
        ));
    }
    let (warmup, iters) = scale(10, 150);
    {
        let mut sim = build_round_sim(256, 2);
        let actions = vec![RoundAction::SyncOnly; 256];
        scenarios.push(measure(
            "round_loop_sync_256",
            json_object(vec![
                ("nodes", Value::UInt(256)),
                ("degree", Value::UInt(6)),
                ("model", Value::String("mlp-32-24-10".into())),
                ("mode", Value::String(mode.into())),
            ]),
            warmup,
            iters,
            || {
                sim.run_round(black_box(&actions));
            },
        ));
    }

    // --- codec scenarios ----------------------------------------------
    // CIFAR-10 model size from Table 1, the share-phase payload. Both
    // round trips run through the reusable encode/decode scratch buffers
    // (`EncodeScratch` / `DecodeScratch`), so after the first warmup
    // iteration fills capacities the wire path is allocation-free — the
    // proxy column pins that.
    let params: Vec<f32> = (0..89_834).map(|i| ((i as f32) * 0.11).sin()).collect();
    for (name, codec) in [
        ("codec_dense_roundtrip", ModelCodec::DenseF32),
        ("codec_quantized_u16_roundtrip", ModelCodec::QuantizedU16),
    ] {
        let (warmup, iters) = scale(5, 100);
        let mut frame: Vec<u8> = Vec::new();
        let mut encode_scratch = EncodeScratch::default();
        let mut decode_scratch = DecodeScratch::default();
        scenarios.push(measure(
            name,
            json_object(vec![
                ("codec", Value::String(codec.name().into())),
                ("params", Value::UInt(params.len() as u64)),
                ("mode", Value::String(mode.into())),
            ]),
            warmup,
            iters,
            || {
                encode_message_with(codec, 3, 7, &params, &mut frame, &mut encode_scratch);
                let decoded =
                    decode_frame_into(&frame, &mut decode_scratch).expect("frame must decode");
                black_box(&decoded);
            },
        ));
    }

    // --- error-feedback compression scenario ---------------------------
    // The per-link hot path of CHOCO-SGD error feedback at the pinned
    // CIFAR-10 model size and the ext_compression default kept fraction
    // (1/16): residual accumulation + top-k selection over the residual +
    // replica fold-back, through reusable buffers (allocation-free at
    // steady state — the proxy column pins that too).
    {
        let k = params.len() / 16;
        let (warmup, iters) = scale(5, 100);
        let mut replica = vec![0.0f32; params.len()];
        let mut model = params.clone();
        let mut scratch = FeedbackScratch::default();
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        let mut round = 0usize;
        scenarios.push(measure(
            "topk_feedback",
            json_object(vec![
                ("codec", Value::String("top-k".into())),
                ("params", Value::UInt(params.len() as u64)),
                ("k", Value::UInt(k as u64)),
                ("beta", Value::Float(1.0)),
                ("mode", Value::String(mode.into())),
            ]),
            warmup,
            iters,
            || {
                // drift a rotating handful of coordinates in place so the
                // residual never collapses to zero across iterations
                round = round.wrapping_add(1);
                let len = model.len();
                for d in 0..8 {
                    model[(round * 97 + d * 131) % len] += 1e-3;
                }
                compress_with_feedback_top_k(
                    &model,
                    &mut replica,
                    1.0,
                    k,
                    &mut scratch,
                    &mut indices,
                    &mut values,
                );
                black_box((&replica, &indices, &values));
            },
        ));
    }

    // --- dynamic-topology scenario --------------------------------------
    // The scheduled-round loop under churn: a 24-node *complete* base
    // graph with 70% per-round edge dropout cycles through all 552
    // directed links, while top-k error feedback runs with a deliberately
    // tight replica cap (4 per receiver). This is the regression gate for
    // the replica leak: the pre-cap state allocated one model-sized
    // replica per distinct link forever, so its allocation proxy grew
    // with the link census; the capped state evicts the stalest link and
    // recycles its buffer, keeping the per-round proxy flat (what remains
    // is the per-round graph + MH-matrix generation, which is constant).
    {
        let n = 24;
        let cap = 4;
        let base = skiptrain_topology::Graph::complete(n);
        let mut config = SimulationConfig::minimal(5, 16, 5, 0.5);
        config.compression = CompressionPolicy::Uniform(ModelCodec::TopK { k: 64 });
        config.feedback_beta = Some(1.0);
        config.feedback_replica_cap = Some(cap);
        let mut sim = build_sim_on(base.clone(), 5, config);
        let mut sched =
            ScheduledTopology::new(base, TopologySchedule::EdgeDropout { p: 0.7, seed: 11 });
        let actions = vec![RoundAction::SyncOnly; n];
        let (warmup, iters) = scale(10, 200);
        scenarios.push(measure(
            "dynamic_topology_round",
            json_object(vec![
                ("nodes", Value::UInt(n as u64)),
                ("base", Value::String("complete".into())),
                ("schedule", Value::String("edge-dropout p=0.7".into())),
                ("codec", Value::String("top-k".into())),
                ("k", Value::UInt(64)),
                ("beta", Value::Float(1.0)),
                ("replica_cap", Value::UInt(cap as u64)),
                ("mode", Value::String(mode.into())),
            ]),
            warmup,
            iters,
            || {
                let mixing = sched.mixing_for_round(sim.round());
                sim.try_run_round_with_mixing(black_box(&actions), mixing)
                    .expect("scheduled graph matches the fleet");
            },
        ));
    }

    // --- battery scenario ------------------------------------------------
    // The closed-loop round with the battery machinery live: recharge from
    // the harvest trace, policy decision, participation masking, and the
    // post-round settle all run every round on top of the pinned 64-node
    // train loop. The harvest outpaces the drain so the fleet stays fully
    // charged and every node trains — the scenario isolates the battery
    // bookkeeping overhead (O(n) per round) against `round_loop_train_64`,
    // and its allocation proxy pins that the recharge/decide/mask/settle
    // cycle is allocation-free at steady state (masked mixing reuses one
    // scratch matrix; charge vectors are updated in place).
    {
        let n = 64;
        let mut config = SimulationConfig::minimal(7, 16, 5, 0.5);
        config.training_energy_wh = vec![2e-4; n];
        config.battery = Some(BatterySetup {
            state: BatteryState::new(vec![1.0; n]),
            trace: HarvestTrace::new(HarvestProfile::Constant { watts: 0.05 }, 60.0, n, 7, 0.1),
            policy: BatteryPolicy::Threshold { min_fraction: 0.2 },
            node_policies: None,
        });
        let graph = random_regular(n, 6, 7);
        let mut sim = build_sim_on(graph, 7, config);
        let actions = vec![RoundAction::Train; n];
        let (warmup, iters) = scale(4, 40);
        scenarios.push(measure(
            "battery_round",
            json_object(vec![
                ("nodes", Value::UInt(n as u64)),
                ("degree", Value::UInt(6)),
                ("model", Value::String("mlp-32-24-10".into())),
                ("batch", Value::UInt(16)),
                ("local_steps", Value::UInt(5)),
                ("policy", Value::String("threshold 0.2".into())),
                ("harvest", Value::String("constant 0.05 W".into())),
                ("mode", Value::String(mode.into())),
            ]),
            warmup,
            iters,
            || {
                sim.run_round(black_box(&actions));
            },
        ));
    }

    // --- adaptive-link scenario ------------------------------------------
    // The per-link compression policy layer in isolation: a 64-node
    // sync-only fleet under a diurnal harvest resolves the DEAL tier
    // table per sender per round (charge snapshot → tier lookup →
    // per-link codec table) and shares through heterogeneous codecs,
    // with the per-edge energy accounting charging each link's resolved
    // bytes. Sync-only rounds keep the (separately measured) training
    // path out of the window, and the round mixings are generated up
    // front from the edge-dropout schedule and cycled, so the measured
    // loop is exactly the adaptive share machinery; its allocation proxy
    // pins that tier resolution reuses the per-node codec rows, the
    // charge-fraction snapshot buffer, and the per-receiver codec
    // scratch (0 B at steady state).
    {
        let n = 64;
        let graph = random_regular(n, 6, 13);
        let mut config = SimulationConfig::minimal(13, 16, 5, 0.5);
        config.compression = CompressionPolicy::deal_tiers(64);
        config.training_energy_wh = vec![2e-4; n];
        config.battery = Some(BatterySetup {
            state: BatteryState::new(vec![2e-3; n]),
            trace: HarvestTrace::new(
                HarvestProfile::Diurnal {
                    peak_watts: 0.05,
                    period_rounds: 16.0,
                },
                60.0,
                n,
                13,
                0.1,
            ),
            policy: BatteryPolicy::Threshold { min_fraction: 0.1 },
            node_policies: None,
        });
        let mut sim = build_sim_on(graph.clone(), 13, config);
        let mut sched =
            ScheduledTopology::new(graph, TopologySchedule::EdgeDropout { p: 0.3, seed: 13 });
        let mixings: Vec<MixingMatrix> =
            (0..16).map(|r| sched.mixing_for_round(r).clone()).collect();
        let actions = vec![RoundAction::SyncOnly; n];
        // Warm a full 16-round mixing/diurnal cycle (even in quick mode)
        // so the measured window sees converged scratch capacities —
        // every cached mixing's masked rows, per-link codec tables, and
        // per-receiver codec scratch have reached their high-water marks.
        let (warmup, iters) = scale(64, 40);
        scenarios.push(measure(
            "adaptive_link_round",
            json_object(vec![
                ("nodes", Value::UInt(n as u64)),
                ("degree", Value::UInt(6)),
                (
                    "schedule",
                    Value::String("edge-dropout p=0.3 (16 cached)".into()),
                ),
                ("policy", Value::String("energy-adaptive deal tiers".into())),
                ("k", Value::UInt(64)),
                ("harvest", Value::String("diurnal 0.05 W peak".into())),
                ("mode", Value::String(mode.into())),
            ]),
            warmup,
            iters,
            || {
                let mixing = black_box(&mixings[sim.round() % mixings.len()]);
                sim.try_run_round_with_mixing(black_box(&actions), mixing)
                    .expect("cached scheduled graph matches the fleet");
            },
        ));
    }

    // --- event-scheduler scenario ----------------------------------------
    // One realistic deadline round of the discrete-event core per
    // iteration, over the pinned 64-node 6-regular mixing: a 10% straggler
    // tail at 4× slowdown, constant half-round link latency against a
    // quarter-round deadline slack (so late-edge classification and the
    // sorted late set are exercised every round), and light churn. This
    // isolates the event machinery itself — priority-queue push/pop,
    // seeded per-(round, node) and per-(round, edge) draws, per-node
    // clock advancement — from the training round it schedules; its
    // allocation proxy pins that the scheduler reuses its queue, late-set,
    // and gating buffers (allocation-free at steady state).
    {
        let n = 64;
        let graph = random_regular(n, 6, 9);
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        let mut engine = EventEngine::new(
            n,
            9,
            ComputeProfile::StragglerTail {
                tail_prob: 0.1,
                tail_factor: 4.0,
            },
            LatencyModel::Constant {
                ticks: BASE_TRAIN_TICKS / 2,
            },
            Some(ChurnModel {
                leave_prob: 0.02,
                rejoin_prob: 0.5,
            }),
            RoundSemantics::Deadline {
                slack_ticks: BASE_TRAIN_TICKS / 4,
            },
        );
        let actions = vec![RoundAction::Train; n];
        let mut round = 0usize;
        let (warmup, iters) = scale(10, 400);
        scenarios.push(measure(
            "event_round",
            json_object(vec![
                ("nodes", Value::UInt(n as u64)),
                ("degree", Value::UInt(6)),
                ("compute", Value::String("straggler p=0.1 x4".into())),
                ("latency", Value::String("constant half-round".into())),
                ("churn", Value::String("leave 0.02 rejoin 0.5".into())),
                ("semantics", Value::String("deadline quarter-round".into())),
                ("mode", Value::String(mode.into())),
            ]),
            warmup,
            iters,
            || {
                engine.begin_round(round, black_box(&actions), &mixing);
                round += 1;
                black_box(engine.late_edges());
            },
        ));
    }

    // --- wire-corruption scenario ----------------------------------------
    // One round of per-edge corruption decisions over a 64-node 6-regular
    // edge census at 10% corruption, against the pinned CIFAR-10 frame:
    // every edge draws its fate from the partitioned per-(round, edge)
    // stream, and each corrupted edge takes the full reject path — seeded
    // in-place bit-flip, checksum verify failure, flip-back. Its
    // allocation proxy pins that the corruption decision and the checksum
    // reject are allocation-free (the flip is XOR-in-place against the
    // live frame; `decode_frame_into`'s checksum-failure path allocates
    // nothing) — isolated from the serialized share loop, whose sender
    // decode allocates its payload regardless of corruption.
    {
        let (n, degree) = (64usize, 6usize);
        let (warmup, iters) = scale(5, 100);
        let mut frame: Vec<u8> = Vec::new();
        let mut encode_scratch = EncodeScratch::default();
        let mut decode_scratch = DecodeScratch::default();
        encode_message_with(
            ModelCodec::DenseF32,
            3,
            7,
            &params,
            &mut frame,
            &mut encode_scratch,
        );
        let transport = TransportKind::Serialized {
            drop_prob: 0.0,
            corrupt_prob: 0.1,
        };
        let mut round = 0usize;
        let mut corrupted = 0u64;
        scenarios.push(measure(
            "corrupt_frame_round",
            json_object(vec![
                ("nodes", Value::UInt(n as u64)),
                ("degree", Value::UInt(degree as u64)),
                ("params", Value::UInt(params.len() as u64)),
                ("transport", Value::String("serialized".into())),
                ("corrupt_prob", Value::Float(0.1)),
                ("mode", Value::String(mode.into())),
            ]),
            warmup,
            iters,
            || {
                round = round.wrapping_add(1);
                for src in 0..n {
                    for hop in 1..=degree {
                        let dst = (src + hop) % n;
                        if transport.fate(7, round, src, dst) == MessageFate::Corrupted {
                            corrupt_frame_in_place(&mut frame, 7, round, src, dst);
                            let rejected = decode_frame_into(&frame, &mut decode_scratch).is_err();
                            corrupt_frame_in_place(&mut frame, 7, round, src, dst);
                            assert!(rejected, "corrupted frame must fail the checksum");
                            corrupted += 1;
                        }
                    }
                }
                black_box(&frame);
            },
        ));
        assert!(
            corrupted > 0,
            "corruption scenario must exercise the reject path"
        );
    }

    // --- report --------------------------------------------------------
    let report = build_report(&git_rev(), &scenarios);
    println!(
        "{:<34} {:>14} {:>16} {:>18}",
        "scenario", "rounds/sec", "ns/step", "bytes-alloc/step"
    );
    for s in &scenarios {
        println!(
            "{:<34} {:>14.2} {:>16.0} {:>18}",
            s.name, s.rounds_per_sec, s.ns_per_step, s.bytes_allocated_proxy
        );
    }
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, format!("{text}\n")).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", args.out);
        std::process::exit(1);
    });

    // the written artifact is what future tooling consumes — re-read and
    // validate that exact file so the gate cannot silently rot
    let written = std::fs::read_to_string(&args.out).expect("just-written report is readable");
    let parsed: Value = serde_json::from_str(&written).unwrap_or_else(|e| {
        eprintln!("emitted report is not valid JSON: {e:?}");
        std::process::exit(1);
    });
    if let Err(msg) = validate_report(&parsed) {
        eprintln!("perf report failed schema validation: {msg}");
        std::process::exit(1);
    }
    if let Err(msg) = validate_required_scenarios(&parsed, REQUIRED_SCENARIOS) {
        eprintln!("perf report failed required-scenario validation: {msg}");
        std::process::exit(1);
    }
    println!(
        "wrote {} ({} scenarios, git {}; total heap allocated {} MiB)",
        args.out,
        scenarios.len(),
        git_rev(),
        allocated_bytes() / (1 << 20)
    );
}
