//! Layer probes: each layer's public functions replayed at one workload's
//! shapes and counts, timed from outside under `probe.<layer>.<fn>` spans.
//!
//! A probe reports the fastest batch of calls (the estimator of the timed
//! repeats, for the same reason). Unsuffixed probes run at thread budget 1;
//! `_t1`/`_tmax` probes run at both.

use crate::metrics::Metrics;
use crate::spans::{next_id, thread_index, Clock, Span};
use rayon::prelude::*;
use skiptrain_core::{BatteryCapacitySpec, BatterySpec, ChurnSpec, DataBundle, ExperimentConfig};
use skiptrain_energy::battery::{BatteryPolicy, ParticipationState};
use skiptrain_energy::comm::CommEnergyModel;
use skiptrain_energy::trace::HarvestProfile;
use skiptrain_energy::EnergyLedger;
use skiptrain_engine::node::Node;
use skiptrain_engine::transport::{decode_frame_into, encode_message_with};
use skiptrain_engine::{
    CompressionPolicy, DecodeScratch, EncodeScratch, EventEngine, ModelCodec, RoundAction,
    RoundSemantics, Simulation, SimulationConfig,
};
use skiptrain_linalg::compress::{quantize_u8_into, top_k_indices_into};
use skiptrain_linalg::ops::weighted_sum_indexed_into;
use skiptrain_linalg::rng::derive_seed;
use skiptrain_linalg::{gemm_a_bt_into, gemm_at_b_into, gemm_into, Matrix};
use skiptrain_nn::sgd::SgdConfig;
use skiptrain_nn::zoo::ModelKind;
use skiptrain_topology::{MixingMatrix, ScheduledTopology};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall time one visit of a probe may spend measuring (after its warm-up
/// call).
const PROBE_BUDGET: Duration = Duration::from_millis(30);
/// Times the whole probe list is walked. The host's speed drifts for
/// hundreds of milliseconds at a time, so one long window per probe can
/// sit entirely inside a slow phase; visits spread seconds apart do not.
const PROBE_VISITS: usize = 3;
/// Target length of one timed batch of calls.
const BATCH_TARGET: Duration = Duration::from_millis(2);

/// Fastest per-call seconds of `f` over repeated batches, and the number
/// of measured calls. One unmeasured call first fills caches and lazily
/// grown buffers.
fn fastest_call_s(mut f: impl FnMut()) -> (f64, u64) {
    f();
    let started = Instant::now();
    f();
    let one = started.elapsed().max(Duration::from_nanos(1));
    let batch = (BATCH_TARGET.as_nanos() / one.as_nanos()).clamp(1, 1 << 20) as u64;
    let (mut best, mut calls, mut batches) = (one.as_secs_f64(), 1u64, 0u32);
    while batches < 3 || started.elapsed() < PROBE_BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / batch as f64);
        calls += batch;
        batches += 1;
    }
    (best, calls)
}

/// Dense-layer `(input, output)` dimensions of a configuration's model.
pub fn dense_layers(cfg: &ExperimentConfig) -> Vec<(usize, usize)> {
    let dims = match cfg.model_kind() {
        ModelKind::Mlp { dims } => dims,
        other => vec![other.input_dim(), other.num_classes()],
    };
    dims.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Floating-point operations of one SGD step's GEMMs (forward, weight
/// gradient, input gradient: 2·b·in·out each, per dense layer).
pub fn sgd_step_flops(cfg: &ExperimentConfig) -> f64 {
    let b = cfg.batch_size as f64;
    dense_layers(cfg)
        .iter()
        .map(|&(i, o)| 6.0 * b * i as f64 * o as f64)
        .sum()
}

/// The shapes and counts of one workload that the probes replay.
pub struct Shape<'a> {
    /// The (first) experiment configuration of the workload.
    pub cfg: &'a ExperimentConfig,
    /// Its data bundle.
    pub data: &'a DataBundle,
    /// Dense-layer `(input, output)` dimensions of the per-node model.
    pub layers: Vec<(usize, usize)>,
    /// Parameters per model.
    pub params: usize,
    /// Topology degree (neighbours per node).
    pub degree: usize,
}

impl<'a> Shape<'a> {
    /// Reads the shapes off a configuration.
    pub fn of(cfg: &'a ExperimentConfig, data: &'a DataBundle) -> Self {
        let graph = cfg.topology.build(cfg.nodes, derive_seed(cfg.seed, 0x7090));
        Self {
            cfg,
            data,
            layers: dense_layers(cfg),
            params: cfg.model_kind().build(0).param_count(),
            degree: graph.degree_range().1,
        }
    }
}

/// Runs probes and records their spans and metrics.
pub struct Prober<'a> {
    /// The process clock.
    pub clock: Clock,
    /// Where probe spans go.
    pub spans: &'a mut Vec<Span>,
    /// Where probe metrics go.
    pub metrics: &'a mut Metrics,
    /// Machine-parallelism thread budget.
    pub tmax: usize,
    /// Fastest per-call seconds seen so far, per `(span name, budget)`.
    pub best: Vec<(&'static str, usize, f64)>,
}

impl Prober<'_> {
    /// Times `f` at `budget` threads under a `name` span; returns the
    /// fastest per-call seconds over this and every earlier visit.
    fn time(&mut self, name: &'static str, budget: usize, f: impl FnMut()) -> f64 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(budget)
            .build()
            .unwrap_or_else(|never| match never {});
        let start_ns = self.clock.now_ns();
        let (best_s, calls) = pool.install(|| fastest_call_s(f));
        self.spans.push(Span {
            id: next_id(),
            parent: None,
            name,
            start_ns,
            end_ns: self.clock.now_ns(),
            budget,
            thread: thread_index(),
            tag: calls,
            alloc_bytes: 0,
        });
        match self
            .best
            .iter_mut()
            .find(|(n, b, _)| *n == name && *b == budget)
        {
            Some(slot) => {
                slot.2 = slot.2.min(best_s);
                slot.2
            }
            None => {
                self.best.push((name, budget, best_s));
                best_s
            }
        }
    }

    /// Every layer probe of one workload, [`PROBE_VISITS`] times over;
    /// each metric ends up computed from its probe's fastest visit.
    pub fn run_all(&mut self, shape: &Shape<'_>) {
        for _ in 0..PROBE_VISITS {
            self.linalg(shape);
            self.nn(shape);
            self.share_layers(shape);
            self.energy(shape);
            self.setup_layers(shape);
            self.runtime();
            self.rounds(shape);
        }
    }

    fn linalg(&mut self, shape: &Shape<'_>) {
        let b = shape.cfg.batch_size;
        // the three GEMMs each dense layer issues in one SGD step
        let mut bufs: Vec<_> = shape
            .layers
            .iter()
            .map(|&(i, o)| {
                let fill = |len: usize| -> Vec<f32> {
                    (0..len)
                        .map(|j| ((j * 31 + 7) as f32).sin() * 0.3)
                        .collect()
                };
                (
                    i,
                    o,
                    fill(b * i),
                    fill(i * o),
                    fill(b * o),
                    vec![0.0f32; i * o],
                    vec![0.0f32; b * i],
                )
            })
            .collect();
        let step_s = self.time("probe.linalg.gemm", 1, || {
            for (i, o, x, w, y, dw, dx) in bufs.iter_mut() {
                gemm_into(b, *i, *o, x, w, y);
                gemm_at_b_into(*i, b, *o, x, y, dw);
                gemm_a_bt_into(b, *o, *i, y, w, dx);
            }
            black_box(&bufs);
        });
        self.metrics.set(
            "linalg.gemm_gflops",
            sgd_step_flops(shape.cfg) / step_s / 1e9,
        );

        // one round's aggregation: every node sums degree + 1 models
        let (n, p, d) = (shape.cfg.nodes, shape.params, shape.degree);
        let models: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..p).map(|j| ((i + j) as f32 * 0.37).cos()).collect())
            .collect();
        let mut out = vec![0.0f32; p];
        let weights = vec![1.0 / (d + 1) as f32; d + 1];
        let mut indices = vec![0u32; d + 1];
        let sweep_s = self.time("probe.linalg.weighted_sum_indexed_into", 1, || {
            for i in 0..n {
                for (t, slot) in indices.iter_mut().enumerate() {
                    *slot = ((i + t * 7) % n) as u32;
                }
                weighted_sum_indexed_into(&mut out, &indices, &weights, |j| &models[j as usize]);
            }
            black_box(&out);
        });
        let sweep_bytes = (n * (d + 2) * p * 4) as f64;
        self.metrics
            .set("linalg.wsum_gbps", sweep_bytes / sweep_s / 1e9);

        let src = &models[0];
        let k = (p / 64).max(1);
        let mut top = Vec::new();
        let topk_s = self.time("probe.linalg.top_k_indices_into", 1, || {
            top_k_indices_into(black_box(src), k, &mut top);
        });
        self.metrics
            .set("linalg.topk_mbps", (p * 4) as f64 / topk_s / 1e6);
        let mut codes = Vec::new();
        let quant_s = self.time("probe.linalg.quantize_u8_into", 1, || {
            black_box(quantize_u8_into(black_box(src), &mut codes));
        });
        self.metrics
            .set("linalg.quant_mbps", (p * 4) as f64 / quant_s / 1e6);
    }

    fn nn(&mut self, shape: &Shape<'_>) {
        let cfg = shape.cfg;
        // One local step as the engine issues it (sample, gather, forward,
        // loss, backward, `Sgd::step`), on node 0's data. Every call
        // restarts from the initial parameters: a model trained in place
        // for thousands of probe steps saturates, its ReLUs die, and the
        // GEMMs' zero-skip makes the step look half as expensive as it is.
        let seed = derive_seed(cfg.seed, 0x4000);
        let mut node = Node::new(
            0,
            cfg.model_kind().build(seed),
            Arc::clone(&shape.data.node_datasets[0]),
            cfg.batch_size,
            SgdConfig::plain(cfg.learning_rate),
            cfg.seed,
        );
        let initial = cfg.model_kind().build(seed).flat_params();
        let mut trained = Vec::new();
        let steps = cfg.local_steps;
        let round_s = self.time("probe.nn.sgd_step", 1, || {
            black_box(node.train_local(&initial, steps, &mut trained));
        });
        self.metrics
            .set("nn.sgd_step_us", round_s * 1e6 / steps as f64);

        let test = &shape.data.test;
        let rows: Vec<usize> = (0..cfg.eval_max_samples.min(test.len()).max(1)).collect();
        let (mut x_eval, mut y_eval) = (Matrix::zeros(0, 0), Vec::new());
        test.gather_batch(&rows, &mut x_eval, &mut y_eval);
        let forward_s = self.time("probe.nn.eval_forward", 1, || {
            black_box(node.evaluate(&initial, &x_eval, &y_eval));
        });
        self.metrics.set("nn.eval_forward_us", forward_s * 1e6);
    }

    fn share_layers(&mut self, shape: &Shape<'_>) {
        let cfg = shape.cfg;
        let (n, p) = (cfg.nodes, shape.params);
        // wire codecs: encode + decode one model through each DEAL tier
        let CompressionPolicy::EnergyAdaptive { tiers } =
            CompressionPolicy::deal_tiers((p / 64).max(1))
        else {
            unreachable!("deal_tiers builds an energy-adaptive policy")
        };
        let codecs: Vec<ModelCodec> = tiers.iter().map(|t| t.codec).collect();
        let params: Vec<f32> = (0..p).map(|i| (i as f32 * 0.11).sin()).collect();
        let mut frame = Vec::new();
        let (mut enc, mut dec) = (EncodeScratch::default(), DecodeScratch::default());
        let tiers_s = self.time("probe.engine.codec_roundtrip", 1, || {
            for &codec in &codecs {
                encode_message_with(codec, 3, 7, &params, &mut frame, &mut enc);
                black_box(decode_frame_into(&frame, &mut dec).is_ok());
            }
        });
        self.metrics.set(
            "engine.codec_roundtrip_us",
            tiers_s * 1e6 / codecs.len() as f64,
        );

        // schedule: the round's graph and its Metropolis-Hastings mixing
        let graph = cfg.topology.build(n, derive_seed(cfg.seed, 0x7090));
        let mut scheduled =
            ScheduledTopology::new(graph.clone(), cfg.topology_schedule.build(cfg.seed));
        let mut round = 0usize;
        let mixing_s = self.time("probe.topology.mixing_for_round", 1, || {
            black_box(scheduled.mixing_for_round(round % cfg.rounds));
            round += 1;
        });
        self.metrics
            .set("topology.mixing_for_round_us", mixing_s * 1e6);
        let (hits, misses) = scheduled.cache_stats();
        self.metrics.set(
            "topology.mixing_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );

        // event core: one round's timeline under the workload's timing
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        let mut engine = EventEngine::new(
            n,
            cfg.seed,
            cfg.timing.compute.clone(),
            cfg.timing.latency,
            cfg.churn.as_ref().map(ChurnSpec::build),
            RoundSemantics::Barrier,
        );
        let mut policy = cfg.build_policy();
        let mut actions = vec![RoundAction::SyncOnly; n];
        let mut t = 0usize;
        let decide_s = self.time("probe.core.policy_decide", 1, || {
            policy.decide(t % cfg.rounds, &mut actions);
            t += 1;
            black_box(&actions);
        });
        self.metrics.set("core.policy_decide_us", decide_s * 1e6);
        let mut event_round = 0usize;
        let begin_s = self.time("probe.engine.event_begin_round", 1, || {
            engine.begin_round(event_round, &actions, &mixing);
            event_round += 1;
            black_box(engine.late_edges());
        });
        self.metrics
            .set("engine.event_begin_round_us", begin_s * 1e6);
    }

    fn energy(&mut self, shape: &Shape<'_>) {
        let cfg = shape.cfg;
        let n = cfg.nodes;
        // The workload's own battery fleet, or — where the workload runs
        // plug-powered — the same closed loop on a stock fleet.
        let spec = cfg.battery.clone().unwrap_or(BatterySpec {
            capacity: BatteryCapacitySpec::Uniform { wh: 1.0 },
            initial_fraction: 0.6,
            harvest: HarvestProfile::Diurnal {
                peak_watts: 0.05,
                period_rounds: 16.0,
            },
            harvest_jitter: 0.25,
            policy: BatteryPolicy::Threshold { min_fraction: 0.25 },
            node_policies: None,
        });
        let mut setup = spec.build(n, cfg.seed, &cfg.energy.workload);
        let costs = cfg.energy.node_energies(n);
        let mut participation = ParticipationState::new(n);
        let mut active = Vec::new();
        let mut round = 0usize;
        let step_s = self.time("probe.energy.battery_step", 1, || {
            for i in 0..n {
                let offered = setup.trace.energy_wh(i, round);
                setup.state.recharge(i, offered);
            }
            setup
                .policy
                .decide_into(&setup.state, &mut participation, &mut active);
            for (i, &on) in active.iter().enumerate() {
                if on {
                    setup.state.drain(i, costs[i]);
                }
            }
            round += 1;
        });
        self.metrics.set("energy.battery_step_us", step_s * 1e6);

        let comm = CommEnergyModel::paper_fit();
        let bytes = ModelCodec::DenseF32.message_bytes(shape.params);
        let mut ledger = EnergyLedger::new(n);
        let d = shape.degree.max(1);
        let round_s = self.time("probe.energy.ledger_round", 1, || {
            for src in 0..n {
                for hop in 1..=d {
                    ledger.record_tx(src, bytes, &comm);
                    ledger.record_rx((src + hop) % n, bytes, &comm);
                }
            }
            ledger.end_round();
        });
        self.metrics
            .set("energy.ledger_ns_per_msg", round_s * 1e9 / (n * d) as f64);
        black_box(ledger.total_wh());
    }

    fn setup_layers(&mut self, shape: &Shape<'_>) {
        let cfg = shape.cfg;
        let build_s = self.time("probe.data.build", 1, || {
            black_box(cfg.data.build(cfg.nodes, cfg.seed));
        });
        self.metrics.set("data.build_ms", build_s * 1e3);
        let graph_s = self.time("probe.topology.graph_build", 1, || {
            let graph = cfg.topology.build(cfg.nodes, derive_seed(cfg.seed, 0x7090));
            black_box(MixingMatrix::metropolis_hastings(&graph));
        });
        self.metrics.set("topology.graph_build_ms", graph_s * 1e3);
    }

    fn runtime(&mut self) {
        let items: Vec<u64> = (0..self.tmax as u64).collect();
        let dispatch_s = self.time("probe.rayon.dispatch", self.tmax, || {
            items.par_iter().for_each(|x| {
                black_box(x);
            });
        });
        self.metrics.set("rayon.dispatch_us_tmax", dispatch_s * 1e6);
    }

    fn rounds(&mut self, shape: &Shape<'_>) {
        let cfg = shape.cfg;
        let mut sim = build_simulation(cfg, shape.data);
        let train = vec![RoundAction::Train; cfg.nodes];
        let sync = vec![RoundAction::SyncOnly; cfg.nodes];
        for (budget, train_name, sync_name) in [
            (1, "engine.round_train_ms_t1", "engine.round_sync_ms_t1"),
            (
                self.tmax,
                "engine.round_train_ms_tmax",
                "engine.round_sync_ms_tmax",
            ),
        ] {
            let train_s = self.time("probe.engine.run_round_train", budget, || {
                sim.run_round(black_box(&train));
            });
            self.metrics.set(train_name, train_s * 1e3);
            let sync_s = self.time("probe.engine.run_round_sync", budget, || {
                sim.run_round(black_box(&sync));
            });
            self.metrics.set(sync_name, sync_s * 1e3);
        }
        let test = &shape.data.test;
        let evaluate_s = self.time("probe.engine.evaluate", 1, || {
            black_box(sim.evaluate(test, cfg.eval_max_samples));
        });
        self.metrics.set("engine.evaluate_ms", evaluate_s * 1e3);
    }
}

/// The workload's fleet as the runner builds it, through public API only
/// (`core::runner::build_simulation` is crate-private): per-node models,
/// topology and mixing, the effective compression spec, energy wiring and
/// the battery runtime.
fn build_simulation(cfg: &ExperimentConfig, data: &DataBundle) -> Simulation {
    let kind = cfg.model_kind();
    let models = (0..cfg.nodes)
        .map(|i| kind.build(derive_seed(cfg.seed, 0x4000 + i as u64)))
        .collect();
    let graph = cfg.topology.build(cfg.nodes, derive_seed(cfg.seed, 0x7090));
    let mixing = MixingMatrix::metropolis_hastings(&graph);
    let compression = cfg.effective_compression();
    let config = SimulationConfig {
        seed: cfg.seed,
        batch_size: cfg.batch_size,
        local_steps: cfg.local_steps,
        sgd: SgdConfig::plain(cfg.learning_rate),
        transport: cfg.transport,
        compression: compression.policy,
        consensus_gamma: compression.gamma,
        feedback_beta: compression.feedback_beta,
        feedback_replica_cap: compression.feedback_replica_cap,
        training_energy_wh: cfg.energy.node_energies(cfg.nodes),
        comm_energy: match cfg.energy.comm_joules_per_byte {
            Some(j) => CommEnergyModel {
                tx_joules_per_byte: j,
                rx_joules_per_byte: j,
            },
            None => CommEnergyModel::paper_fit(),
        },
        nominal_params: Some(cfg.energy.workload.model_params),
        battery: cfg
            .battery
            .as_ref()
            .map(|spec| spec.build(cfg.nodes, cfg.seed, &cfg.energy.workload)),
    };
    Simulation::with_shared_data(models, data.node_datasets.clone(), graph, mixing, config)
}
