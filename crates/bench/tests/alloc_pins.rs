//! The steady-state allocation pins: sixteen hot-path scenarios that must
//! allocate **0 B per step** once warm, at a thread budget of one.
//!
//! Each scenario builds its state, runs `warmup` unmeasured steps so every
//! scratch buffer reaches its high-water capacity, then runs `steps` more
//! inside a window of the process-wide [`CountingAllocator`]; the first
//! allocated byte fails the test with the scenario's name. How *fast* the
//! same paths run is measured by `benchmark/run.sh`, not here.
//!
//! The counter is process-wide, so this file holds exactly one `#[test]`
//! (a second one would allocate into the first one's windows), and the
//! whole table runs inside a one-thread pool: at a budget of two or more
//! the fork (`rayon::for_each_part`) spawns a scoped thread per part, which
//! allocates 1–25 KB per step (the ROADMAP's worker-pool item). The same
//! test closes with one bracket taken inside a fresh thread: its first
//! serial `A·B` and `Aᵀ·B` allocate 0 B, because the direct tile has no
//! pack scratch to grow.

use skiptrain_bench::perf::{allocated_bytes, CountingAllocator};
use skiptrain_core::{AsyncGossipPolicy, RoundPolicy};
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
use skiptrain_linalg::{gemm_at_b_into, gemm_into, Matrix};
use skiptrain_nn::sgd::SgdConfig;
use skiptrain_nn::zoo::ModelKind;
use skiptrain_nn::{Sequential, Sgd, SoftmaxCrossEntropy};
use skiptrain_topology::regular::random_regular;
use skiptrain_topology::schedule::round_seed;
use skiptrain_topology::{Graph, MixingMatrix, ScheduledTopology, TopologySchedule};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One iteration of a scenario: a simulation round, an SGD step, a codec
/// round trip.
type Step = Box<dyn FnMut()>;

/// One pinned scenario: its name, unmeasured warmup steps, measured
/// steps, and the builder of its step closure.
struct Pin {
    name: &'static str,
    warmup: usize,
    steps: usize,
    build: fn() -> Step,
}

const PINS: [Pin; 16] = [
    Pin {
        name: "sgd_step_mlp_medium_90k",
        warmup: 10,
        steps: 30,
        build: || sgd_step(skiptrain_nn::zoo::mlp(&[128, 512, 128, 10], 1), 32, 10),
    },
    Pin {
        name: "round_loop_train_64",
        warmup: 4,
        steps: 6,
        build: || round_loop(64, 1, RoundAction::Train),
    },
    // the dense in-place mix reading the models themselves: sync rounds
    // fill the mixing window and every eighth settles it, through a stage
    // of 256 × MIX_SUB_TILE floats
    Pin {
        name: "round_loop_sync_256",
        warmup: 10,
        steps: 20,
        build: || round_loop(256, 2, RoundAction::SyncOnly),
    },
    // SkipTrain 1:7: a training round settles the one-round window it
    // finds, seven sync rounds wait in the window, the last fills and
    // settles it; two periods measured
    Pin {
        name: "sync_window_64",
        warmup: 8,
        steps: 16,
        build: sync_window,
    },
    Pin {
        name: "framed_sync_round_64",
        warmup: 4,
        steps: 8,
        build: framed_sync_round,
    },
    Pin {
        name: "codec_dense_roundtrip",
        warmup: 5,
        steps: 10,
        build: || codec_roundtrip(ModelCodec::DenseF32),
    },
    Pin {
        name: "codec_quantized_u8_roundtrip",
        warmup: 5,
        steps: 10,
        build: || codec_roundtrip(ModelCodec::QuantizedU8),
    },
    Pin {
        name: "codec_quantized_u16_roundtrip",
        warmup: 5,
        steps: 10,
        build: || codec_roundtrip(ModelCodec::QuantizedU16),
    },
    Pin {
        name: "codec_top_k_roundtrip",
        warmup: 5,
        steps: 10,
        build: || codec_roundtrip(ModelCodec::TopK { k: 89_834 / 64 }),
    },
    Pin {
        name: "dynamic_topology_round",
        warmup: 10,
        steps: 40,
        build: dynamic_topology_round,
    },
    Pin {
        name: "battery_round",
        warmup: 4,
        steps: 6,
        build: battery_round,
    },
    // Warm four full 16-round mixing/diurnal cycles so every cached
    // mixing's masked rows, per-link codec tables and per-receiver codec
    // scratch have reached their high-water marks, then measure one cycle.
    Pin {
        name: "adaptive_link_round",
        warmup: 64,
        steps: 16,
        build: adaptive_link_round,
    },
    // `adaptive_fleet`'s share path: the same four-cycle warmup, then one
    // cycle of per-edge error feedback over lossy frames
    Pin {
        name: "adaptive_feedback_round",
        warmup: 64,
        steps: 16,
        build: adaptive_feedback_round,
    },
    Pin {
        name: "event_round",
        warmup: 10,
        steps: 40,
        build: event_round,
    },
    Pin {
        name: "corrupt_frame_round",
        warmup: 5,
        steps: 10,
        build: corrupt_frame_round,
    },
    Pin {
        name: "gossip_round",
        warmup: 16,
        steps: 24,
        build: gossip_round,
    },
];

#[test]
fn steady_state_steps_allocate_zero_bytes_at_one_thread() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the vendored pool builder is infallible")
        .install(|| {
            for pin in &PINS {
                let mut step = (pin.build)();
                for _ in 0..pin.warmup {
                    step();
                }
                let before = allocated_bytes();
                for _ in 0..pin.steps {
                    step();
                }
                assert_eq!(allocated_bytes() - before, 0, "{}", pin.name);
            }
        });

    // A serial `A·B` / `Aᵀ·B` has no pack scratch, so the *first* multiplies
    // of a fresh thread — what every worker of a fork into two or more
    // parts is — allocate nothing either. Bracketed
    // inside the thread, while this one only waits for it.
    let fresh = std::thread::spawn(|| {
        let (x, w) = (vec![0.5f32; 16 * 32], vec![0.25f32; 32 * 24]);
        let (mut y, mut dw) = (vec![0.0f32; 16 * 24], vec![0.0f32; 32 * 24]);
        let before = allocated_bytes();
        gemm_into(16, 32, 24, black_box(&x), black_box(&w), &mut y);
        gemm_at_b_into(32, 16, 24, black_box(&x), black_box(&y), &mut dw);
        black_box(&dw);
        allocated_bytes() - before
    });
    let fresh = fresh.join().expect("the multiplies do not panic");
    assert_eq!(
        fresh, 0,
        "first gemm_into + gemm_at_b_into of a fresh thread"
    );
}

/// CIFAR-10 model size from Table 1, the share-phase payload.
fn table1_params() -> Vec<f32> {
    (0..89_834).map(|i| ((i as f32) * 0.11).sin()).collect()
}

/// One SGD step (forward + backward + update) on a synthetic batch: the
/// model's activation and gradient buffers and the GEMM packing buffers are
/// all reused from the first step on.
fn sgd_step(mut model: Sequential, batch: usize, classes: usize) -> Step {
    let loss = SoftmaxCrossEntropy::new(classes);
    let mut opt = Sgd::new(SgdConfig::plain(0.1));
    let x = Matrix::from_fn(batch, model.input_dim(), |r, c| {
        ((r * 31 + c) as f32).sin() * 0.3
    });
    let y: Vec<u32> = (0..batch).map(|i| (i % classes) as u32).collect();
    let mut grad = Matrix::zeros(0, 0);
    Box::new(move || {
        model.zero_grads();
        let value = {
            let logits = model.forward(&x);
            loss.loss_and_grad(logits, &y, &mut grad)
        };
        model.backward(&x, &grad);
        opt.step(&mut model);
        black_box(value);
    })
}

/// The pinned mixture-MLP fleet on an explicit graph and config.
fn build_sim_on(graph: Graph, seed: u64, config: SimulationConfig) -> Simulation {
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

/// The whole-round hot path (train + share + aggregate, or share +
/// aggregate alone) on an `n`-node 6-regular mixture-MLP fleet.
fn round_loop(n: usize, seed: u64, action: RoundAction) -> Step {
    let graph = random_regular(n, 6, seed);
    let mut sim = build_sim_on(graph, seed, SimulationConfig::minimal(seed, 16, 5, 0.5));
    let actions = vec![action; n];
    Box::new(move || sim.run_round(black_box(&actions)))
}

/// SkipTrain's 1:7 schedule on a 64-node 6-regular fleet, in memory under
/// the lossless codec: every round's dense mix is deferred into the
/// mixing window, which the training round and the window's eighth round
/// settle.
fn sync_window() -> Step {
    let n = 64;
    let mut config = SimulationConfig::minimal(23, 16, 5, 0.5);
    config.compression = CompressionPolicy::Uniform(ModelCodec::DenseF32);
    let mut sim = build_sim_on(random_regular(n, 6, 23), 23, config);
    let (train, sync) = (vec![RoundAction::Train; n], vec![RoundAction::SyncOnly; n]);
    Box::new(move || {
        let actions = if sim.round().is_multiple_of(8) {
            &train
        } else {
            &sync
        };
        sim.run_round(black_box(actions));
    })
}

/// The dense in-place mix reading decoded frames: a 64-node 6-regular
/// sync-only fleet on the serialized transport at 10 % drops, under the
/// uniform lossless codec — every sender's model is encoded and decoded
/// once into its wire scratch, and each receiver mixes its own row with
/// its delivered neighbours' decoded frames, the dropped weight folded
/// onto itself.
fn framed_sync_round() -> Step {
    let n = 64;
    let mut config = SimulationConfig::minimal(19, 16, 5, 0.5);
    config.transport = TransportKind::Serialized {
        drop_prob: 0.1,
        corrupt_prob: 0.0,
    };
    config.compression = CompressionPolicy::Uniform(ModelCodec::DenseF32);
    let mut sim = build_sim_on(random_regular(n, 6, 19), 19, config);
    let actions = vec![RoundAction::SyncOnly; n];
    Box::new(move || sim.run_round(black_box(&actions)))
}

/// An encode/decode round trip through the reusable `EncodeScratch` /
/// `DecodeScratch`: once the first step has filled their capacities the
/// wire path allocates nothing.
fn codec_roundtrip(codec: ModelCodec) -> Step {
    let params = table1_params();
    let mut frame: Vec<u8> = Vec::new();
    let mut encode_scratch = EncodeScratch::default();
    let mut decode_scratch = DecodeScratch::default();
    Box::new(move || {
        encode_message_with(codec, 3, 7, &params, &mut frame, &mut encode_scratch);
        let decoded = decode_frame_into(&frame, &mut decode_scratch).expect("frame must decode");
        black_box(&decoded);
    })
}

/// The scheduled-round loop under churn: a 24-node *complete* base graph
/// with 70% per-round edge dropout cycles through all 552 directed links,
/// while top-k error feedback runs with a deliberately tight replica cap
/// (4 per receiver). This is the regression gate for the replica leak:
/// the pre-cap state allocated one model-sized replica per distinct link
/// forever; the capped state evicts the stalest link and recycles its
/// buffer, and the per-round graph + MH-matrix generation reuses the
/// schedule's scratch slots.
fn dynamic_topology_round() -> Step {
    let n = 24;
    let base = Graph::complete(n);
    let mut config = SimulationConfig::minimal(5, 16, 5, 0.5);
    config.compression = CompressionPolicy::Uniform(ModelCodec::TopK { k: 64 });
    config.feedback_beta = Some(1.0);
    config.feedback_replica_cap = Some(4);
    let mut sim = build_sim_on(base.clone(), 5, config);
    let mut sched =
        ScheduledTopology::new(base, TopologySchedule::EdgeDropout { p: 0.7, seed: 11 });
    let actions = vec![RoundAction::SyncOnly; n];
    Box::new(move || {
        let mixing = sched.mixing_for_round(sim.round());
        sim.try_run_round(black_box(&actions), Some(mixing), None)
            .expect("scheduled graph matches the fleet");
    })
}

/// The closed-loop round with both gates live, through the one entry:
/// churn draws, recharge from the harvest trace, policy decision, the
/// combined participation mask lowered into gated actions and masked
/// mixing, the timeline over those (constant half-round latency against a
/// quarter-round deadline, so the late set fills every round), and the
/// post-round settle, on top of the 64-node train loop. The harvest
/// outpaces the drain so the battery admits everyone and only churn
/// thins the fleet; the pin is that the whole membership/decide/compose/
/// timeline/settle cycle allocates nothing (the gate reuses one mask, one
/// action buffer and one scratch matrix; the late set is sized for the
/// base graph's census, not the round's; charge vectors update in place).
fn battery_round() -> Step {
    let n = 64;
    let mut config = SimulationConfig::minimal(7, 16, 5, 0.5);
    config.training_energy_wh = vec![2e-4; n];
    config.battery = Some(BatterySetup {
        state: BatteryState::new(vec![1.0; n]),
        trace: HarvestTrace::new(HarvestProfile::Constant { watts: 0.05 }, 60.0, n, 7, 0.1),
        policy: BatteryPolicy::Threshold { min_fraction: 0.2 },
        node_policies: None,
    });
    let mut sim = build_sim_on(random_regular(n, 6, 7), 7, config);
    let mut engine = EventEngine::new(
        n,
        7,
        ComputeProfile::Homogeneous,
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
    Box::new(move || {
        sim.try_run_round(black_box(&actions), None, Some(&mut engine))
            .expect("engine and fleet agree on the node count")
    })
}

/// The per-link compression policy layer in isolation: a 64-node
/// sync-only fleet under a diurnal harvest resolves the DEAL tier table
/// per sender per round (charge snapshot → tier lookup → per-link codec
/// table) and shares through heterogeneous codecs, with the per-edge
/// energy accounting charging each link's resolved bytes. The round
/// mixings are generated up front from the edge-dropout schedule and
/// cycled, so the measured loop is exactly the adaptive share machinery;
/// the pin is that tier resolution reuses the per-node codec rows, the
/// charge-fraction snapshot buffer, and the per-receiver codec scratch.
fn adaptive_link_round() -> Step {
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
    let mixings: Vec<MixingMatrix> = (0..16).map(|r| sched.mixing_for_round(r).clone()).collect();
    let actions = vec![RoundAction::SyncOnly; n];
    Box::new(move || {
        let mixing = black_box(&mixings[sim.round() % mixings.len()]);
        sim.try_run_round(black_box(&actions), Some(mixing), None)
            .expect("cached scheduled graph matches the fleet");
    })
}

/// The `adaptive_fleet` benchmark's round on a 64-node 6-regular fleet:
/// SkipTrain 1:3 with one local step, DEAL tiers resolved from diurnally
/// charged batteries, error feedback on every link, the serialized
/// transport dropping 5 % and corrupting 2 % of frames, and the round's
/// graph drawn live by the edge-dropout schedule. The harvest is weak
/// enough that both quantized tiers carry frames in every cycle. Every
/// delivered frame is decoded in the receiver's scratch and folded into
/// its link replica and its sum, every corrupted one is encoded again and
/// rejected; the pin is that replicas, frames and decode buffers all reach
/// their high-water marks within the warmup.
fn adaptive_feedback_round() -> Step {
    let n = 64;
    let graph = random_regular(n, 6, 17);
    let mut config = SimulationConfig::minimal(17, 16, 1, 0.5);
    config.compression = CompressionPolicy::deal_tiers(16);
    config.feedback_beta = Some(1.0);
    config.transport = TransportKind::Serialized {
        drop_prob: 0.05,
        corrupt_prob: 0.02,
    };
    config.training_energy_wh = vec![2e-4; n];
    config.battery = Some(BatterySetup {
        state: BatteryState::new(vec![2e-3; n]),
        trace: HarvestTrace::new(
            HarvestProfile::Diurnal {
                peak_watts: 0.005,
                period_rounds: 16.0,
            },
            60.0,
            n,
            17,
            0.25,
        ),
        policy: BatteryPolicy::Threshold { min_fraction: 0.25 },
        node_policies: None,
    });
    let mut sim = build_sim_on(graph.clone(), 17, config);
    let mut sched =
        ScheduledTopology::new(graph, TopologySchedule::EdgeDropout { p: 0.3, seed: 17 });
    let (train, sync) = (vec![RoundAction::Train; n], vec![RoundAction::SyncOnly; n]);
    Box::new(move || {
        let mixing = sched.mixing_for_round(sim.round());
        let actions = if sim.round().is_multiple_of(4) {
            &train
        } else {
            &sync
        };
        sim.try_run_round(black_box(actions), Some(mixing), None)
            .expect("scheduled graph matches the fleet");
    })
}

/// One realistic deadline round of the discrete-event core per step, over
/// a 64-node 6-regular mixing: a 10% straggler tail at 4× slowdown,
/// constant half-round link latency against a quarter-round deadline slack
/// (so late-edge classification and the sorted late set are exercised
/// every round), and light churn. This isolates the event machinery —
/// the three passes' seeded per-(round, node) and per-(round, edge) draws
/// and per-node clock advancement — from the training round it times; the
/// pin is that the engine reuses its completion and late-set buffers.
fn event_round() -> Step {
    let n = 64;
    let mixing = MixingMatrix::metropolis_hastings(&random_regular(n, 6, 9));
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
    Box::new(move || {
        engine.begin_round(round, black_box(&actions), &mixing);
        round += 1;
        black_box(engine.late_edges());
    })
}

/// One round of per-edge corruption decisions over a 64-node 6-regular
/// edge census at 10% corruption, against the CIFAR-10 frame: every edge
/// draws its fate from the partitioned per-(round, edge) stream, and each
/// corrupted edge takes the full reject path — seeded in-place bit-flip,
/// checksum verify failure, flip-back. The pin is that the corruption
/// decision and the checksum reject allocate nothing (the flip is
/// XOR-in-place against the live frame; `decode_frame_into`'s
/// checksum-failure path touches no scratch).
fn corrupt_frame_round() -> Step {
    let (n, degree) = (64usize, 6usize);
    let mut frame: Vec<u8> = Vec::new();
    let mut decode_scratch = DecodeScratch::default();
    encode_message_with(
        ModelCodec::DenseF32,
        3,
        7,
        &table1_params(),
        &mut frame,
        &mut EncodeScratch::default(),
    );
    let transport = TransportKind::Serialized {
        drop_prob: 0.0,
        corrupt_prob: 0.1,
    };
    let mut round = 0usize;
    Box::new(move || {
        round = round.wrapping_add(1);
        let mut corrupted = 0usize;
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
        assert!(corrupted > 0, "every round must exercise the reject path");
        black_box(&frame);
    })
}

/// One asynchronous-gossip tick as the runner drives it: the schedule
/// regenerates the round's edge-dropout graph (30 % of a 64-node 6-regular
/// base), draws a random maximal matching of it and writes that matching's
/// pairwise mixing; `AsyncGossipPolicy` activates each node with
/// probability ½; the deadline round (seeded latency straddling the slack,
/// so some matched edges arrive late) trains, shares over the matched pairs
/// and aggregates. The pin is that the graph, the matching, its graph and
/// the matrix are all regenerated in the schedule's reusable slots.
fn gossip_round() -> Step {
    let n = 64;
    let graph = random_regular(n, 6, 17);
    let mut sim = build_sim_on(graph.clone(), 17, SimulationConfig::minimal(17, 16, 5, 0.5));
    let mut sched =
        ScheduledTopology::new(graph, TopologySchedule::EdgeDropout { p: 0.3, seed: 17 });
    let mut policy = AsyncGossipPolicy::new(0.5, 17);
    let mut engine = EventEngine::new(
        n,
        17,
        ComputeProfile::Homogeneous,
        LatencyModel::Seeded {
            mean_ticks: BASE_TRAIN_TICKS / 4,
            jitter: 0.8,
        },
        None,
        RoundSemantics::Deadline {
            slack_ticks: BASE_TRAIN_TICKS / 4,
        },
    );
    let mut actions = vec![RoundAction::SyncOnly; n];
    Box::new(move || {
        let t = sim.round();
        policy.decide(t, &mut actions);
        let mixing = sched.pairwise_mixing_for_round(t, round_seed(17, 16, t));
        sim.try_run_round(black_box(&actions), Some(mixing), Some(&mut engine))
            .expect("the matching spans the fleet");
    })
}
