//! Cross-crate compression scenarios: codec choice must trade communication
//! energy against accuracy monotonically, without touching the training
//! energy axis, and the lossless codec must reproduce the uncompressed
//! baseline bit-for-bit.

mod common;

use common::{run, run_shared};
use skiptrain::prelude::*;

fn tiny(seed: u64) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = 12;
    cfg.rounds = 24;
    cfg.eval_every = 24;
    cfg.eval_max_samples = 200;
    cfg
}

fn sim_params(cfg: &ExperimentConfig) -> usize {
    cfg.model_kind().build(0).param_count()
}

#[test]
fn dense_codec_is_a_bitwise_noop() {
    let base = tiny(1);
    let mut explicit = base.clone();
    explicit.codec = ModelCodec::DenseF32;
    let a = run(&base);
    let b = run(&explicit);
    assert_eq!(
        a.final_test.mean_accuracy.to_bits(),
        b.final_test.mean_accuracy.to_bits()
    );
    assert_eq!(a.total_comm_wh.to_bits(), b.total_comm_wh.to_bits());
    assert_eq!(a.final_mean_model, b.final_mean_model);
}

#[test]
fn frontier_comm_energy_drops_monotonically_with_bounded_accuracy_loss() {
    let base = tiny(2);
    // top-k costs 8 bytes per kept parameter (charged at the same kept
    // fraction of the nominal model), so only fractions below 1/8 undercut
    // 8-bit quantization on the wire
    let k = sim_params(&base) / 16;
    let codecs = [
        ModelCodec::DenseF32,
        ModelCodec::QuantizedU16,
        ModelCodec::QuantizedU8,
        ModelCodec::TopK { k },
    ];
    let data = base.data.build(base.nodes, base.seed);
    let results: Vec<ExperimentResult> = codecs
        .iter()
        .map(|&codec| {
            let mut cfg = base.clone();
            cfg.codec = codec;
            run_shared(&cfg, &data)
        })
        .collect();

    let dense_acc = results[0].final_test.mean_accuracy;
    for w in results.windows(2) {
        assert!(
            w[1].total_comm_wh < w[0].total_comm_wh,
            "comm energy must drop: {} -> {}",
            w[0].total_comm_wh,
            w[1].total_comm_wh
        );
    }
    for (codec, r) in codecs.iter().zip(&results).skip(1) {
        // Quantization error is tiny → near-dense accuracy. Aggressive
        // top-k (6% kept, no error feedback) pays a real consensus price
        // on this hard non-IID task, but must still clearly beat 10-class
        // chance (0.1).
        let floor = match codec {
            ModelCodec::TopK { .. } => 0.15,
            _ => dense_acc - 0.1,
        };
        assert!(
            r.final_test.mean_accuracy > floor,
            "{codec:?}: accuracy loss too large ({} vs dense {dense_acc})",
            r.final_test.mean_accuracy
        );
        assert!(
            (r.total_training_wh - results[0].total_training_wh).abs() < 1e-9,
            "compression must not touch training energy"
        );
    }
}

#[test]
fn quantized_comm_energy_matches_codec_bytes_analytically() {
    // 6-regular static topology: comm Wh = rounds · n · 6 · (tx + rx) at
    // the codec's per-message bytes for the nominal model size.
    let mut cfg = tiny(3);
    cfg.codec = ModelCodec::QuantizedU8;
    let result = run(&cfg);
    let comm = skiptrain::energy::comm::CommEnergyModel::paper_fit();
    let bytes = ModelCodec::QuantizedU8.message_bytes(cfg.energy.workload.model_params);
    let expected =
        (cfg.rounds * cfg.nodes * 6) as f64 * (comm.tx_energy_wh(bytes) + comm.rx_energy_wh(bytes));
    assert!(
        (result.total_comm_wh - expected).abs() < 1e-9,
        "measured {} vs expected {expected}",
        result.total_comm_wh
    );
}

#[test]
fn compressed_experiments_are_deterministic() {
    for codec in [ModelCodec::QuantizedU8, ModelCodec::TopK { k: 200 }] {
        let mut cfg = tiny(4);
        cfg.codec = codec;
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(
            a.final_test.mean_accuracy.to_bits(),
            b.final_test.mean_accuracy.to_bits(),
            "{codec:?} run not deterministic"
        );
        assert_eq!(a.total_comm_wh.to_bits(), b.total_comm_wh.to_bits());
    }
}

#[test]
fn error_feedback_closes_top_k_accuracy_gap_at_unchanged_comm_energy() {
    // Issue-4 acceptance condition: at the ext_compression default kept
    // fraction (sim_params / 16), plain top-k measurably underperforms
    // DenseF32 on the hard non-IID synth workload (the consensus bias
    // this issue fixes); enabling per-link error feedback must close at
    // least half of that measured gap while charging bit-identical
    // communication energy (feedback is link-local state — zero extra
    // wire bytes).
    let base = tiny(2);
    let k = sim_params(&base) / 16;
    let data = base.data.build(base.nodes, base.seed);

    let mut dense_cfg = base.clone();
    dense_cfg.codec = ModelCodec::DenseF32;
    let dense = run_shared(&dense_cfg, &data);

    let mut plain_cfg = base.clone();
    plain_cfg.codec = ModelCodec::TopK { k };
    let plain = run_shared(&plain_cfg, &data);

    let mut feedback_cfg = plain_cfg.clone();
    feedback_cfg.feedback_beta = Some(1.0);
    let feedback = run_shared(&feedback_cfg, &data);

    let dense_acc = dense.final_test.mean_accuracy;
    let plain_acc = plain.final_test.mean_accuracy;
    let feedback_acc = feedback.final_test.mean_accuracy;
    let gap = dense_acc - plain_acc;
    assert!(
        gap > 0.05,
        "plain top-k must pay a measurable accuracy price for the test \
         to mean anything: dense {dense_acc} vs plain {plain_acc}"
    );
    assert!(
        feedback_acc >= dense_acc - gap / 2.0,
        "error feedback must close >= half the top-k gap: \
         dense {dense_acc}, plain {plain_acc}, feedback {feedback_acc}"
    );
    assert_eq!(
        plain.total_comm_wh.to_bits(),
        feedback.total_comm_wh.to_bits(),
        "feedback must not change communication energy"
    );
    assert!(
        (feedback.total_training_wh - plain.total_training_wh).abs() < 1e-9,
        "feedback must not touch training energy"
    );
}

#[test]
fn feedback_runs_are_deterministic_across_thread_pools() {
    // The feedback path parallelizes over receivers with per-link state;
    // results must be independent of the worker count.
    let mut cfg = tiny(4);
    cfg.codec = ModelCodec::TopK {
        k: sim_params(&cfg) / 16,
    };
    cfg.feedback_beta = Some(1.0);
    let data = cfg.data.build(cfg.nodes, cfg.seed);
    let run_with = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(|| run_shared(&cfg, &data))
    };
    let reference = run_with(1);
    for threads in [2usize, 7] {
        let result = run_with(threads);
        assert_eq!(
            reference.final_test.mean_accuracy.to_bits(),
            result.final_test.mean_accuracy.to_bits(),
            "{threads}-thread accuracy diverged"
        );
        assert_eq!(
            reference.final_mean_model, result.final_mean_model,
            "{threads}-thread mean model diverged"
        );
        assert_eq!(
            reference.total_comm_wh.to_bits(),
            result.total_comm_wh.to_bits()
        );
    }
}

#[test]
fn builder_feedback_knob_runs_end_to_end() {
    let result = run(&ExperimentConfig {
        name: "compressed+ef".into(),
        nodes: 8,
        rounds: 6,
        compression: Some(CompressionSpec {
            feedback_beta: Some(1.0),
            ..CompressionSpec::uniform(ModelCodec::TopK { k: 64 })
        }),
        ..cifar_config(Scale::Quick, 42)
    });
    assert_eq!(result.rounds, 6);
    assert!(result.total_comm_wh > 0.0);
    assert!(result.final_mean_model.iter().all(|v| v.is_finite()));
}

#[test]
fn builder_compression_knob_runs_end_to_end() {
    let result = run(&ExperimentConfig {
        name: "compressed".into(),
        nodes: 8,
        rounds: 6,
        compression: Some(CompressionSpec::uniform(ModelCodec::QuantizedU16)),
        ..cifar_config(Scale::Quick, 42)
    });
    assert_eq!(result.rounds, 6);
    assert!(result.total_comm_wh > 0.0);
}
