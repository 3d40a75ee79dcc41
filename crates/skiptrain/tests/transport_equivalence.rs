//! Transport fidelity: the zero-copy in-memory exchange and the full
//! serialize/decode path must produce bit-identical experiments when no
//! messages are dropped.

mod common;

use common::run;
use skiptrain::prelude::*;

fn config(seed: u64, transport: TransportKind) -> ExperimentConfig {
    let mut cfg = cifar_config(Scale::Quick, seed);
    cfg.nodes = 10;
    cfg.rounds = 12;
    cfg.eval_every = 6;
    cfg.eval_max_samples = 200;
    cfg.transport = transport;
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(2, 1));
    cfg
}

#[test]
fn serialized_lossless_is_bit_identical_to_memory() {
    let mem = run(&config(1, TransportKind::Memory));
    let ser = run(&config(
        1,
        TransportKind::Serialized {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
        },
    ));
    assert_eq!(
        mem.final_test.mean_accuracy.to_bits(),
        ser.final_test.mean_accuracy.to_bits(),
        "transports diverged"
    );
    for (a, b) in mem.test_curve.iter().zip(&ser.test_curve) {
        assert_eq!(a.mean_accuracy.to_bits(), b.mean_accuracy.to_bits());
    }
    assert_eq!(mem.node_train_events, ser.node_train_events);
}

#[test]
fn lossy_transport_changes_results_but_still_learns() {
    let lossless = run(&config(2, TransportKind::Memory));
    let lossy = run(&config(
        2,
        TransportKind::Serialized {
            drop_prob: 0.3,
            corrupt_prob: 0.0,
        },
    ));
    assert_ne!(
        lossless.final_test.mean_accuracy.to_bits(),
        lossy.final_test.mean_accuracy.to_bits(),
        "dropping 30% of messages should perturb results"
    );
    assert!(
        lossy.final_test.mean_accuracy > 0.25,
        "lossy run collapsed: {}",
        lossy.final_test.mean_accuracy
    );
}

#[test]
fn lossy_transport_reports_less_rx_energy() {
    let lossless = run(&config(
        3,
        TransportKind::Serialized {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
        },
    ));
    let lossy = run(&config(
        3,
        TransportKind::Serialized {
            drop_prob: 0.5,
            corrupt_prob: 0.0,
        },
    ));
    assert!(
        lossy.total_comm_wh < lossless.total_comm_wh,
        "dropped messages must not be charged at the receiver: {} vs {}",
        lossy.total_comm_wh,
        lossless.total_comm_wh
    );
}

#[test]
fn corruption_is_accounted_exactly_like_drops_end_to_end() {
    // Pinned fault-injection guarantee: with the partitioned fate draw, a
    // corruption-only run loses exactly the message set an equal-probability
    // drop-only run loses — full experiments must be bit-identical in
    // accuracy, model, energy ledger, and events; only the corruption
    // counter differs.
    let dropped = run(&config(
        5,
        TransportKind::Serialized {
            drop_prob: 0.35,
            corrupt_prob: 0.0,
        },
    ));
    let corrupted = run(&config(
        5,
        TransportKind::Serialized {
            drop_prob: 0.0,
            corrupt_prob: 0.35,
        },
    ));
    assert_eq!(
        dropped.final_test.mean_accuracy.to_bits(),
        corrupted.final_test.mean_accuracy.to_bits(),
        "corruption must degrade exactly like drops"
    );
    assert_eq!(dropped.final_mean_model, corrupted.final_mean_model);
    assert_eq!(
        dropped.total_comm_wh.to_bits(),
        corrupted.total_comm_wh.to_bits(),
        "corrupted frames must charge tx and skip rx, byte-accurately like drops"
    );
    assert_eq!(dropped.node_train_events, corrupted.node_train_events);
    assert_eq!(dropped.corrupted_messages, 0);
    assert!(
        corrupted.corrupted_messages > 0,
        "corruption run must count its rejected frames"
    );
}

#[test]
fn corrupted_frames_charge_tx_but_never_rx() {
    let lossless = run(&config(
        6,
        TransportKind::Serialized {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
        },
    ));
    let corrupted = run(&config(
        6,
        TransportKind::Serialized {
            drop_prob: 0.0,
            corrupt_prob: 0.5,
        },
    ));
    assert!(
        corrupted.total_comm_wh < lossless.total_comm_wh,
        "corrupted messages must not be charged at the receiver: {} vs {}",
        corrupted.total_comm_wh,
        lossless.total_comm_wh
    );
}

#[test]
fn corruption_equivalence_holds_under_topk_and_error_feedback() {
    // The drop-equivalence must survive the compressed and error-feedback
    // paths too: replicas hold (fold to self) on a corrupted edge exactly
    // as on a dropped one.
    for feedback in [None, Some(0.8)] {
        let mut dropped_cfg = config(
            7,
            TransportKind::Serialized {
                drop_prob: 0.3,
                corrupt_prob: 0.0,
            },
        );
        dropped_cfg.codec = ModelCodec::TopK { k: 32 };
        dropped_cfg.feedback_beta = feedback;
        let mut corrupted_cfg = config(
            7,
            TransportKind::Serialized {
                drop_prob: 0.0,
                corrupt_prob: 0.3,
            },
        );
        corrupted_cfg.codec = ModelCodec::TopK { k: 32 };
        corrupted_cfg.feedback_beta = feedback;
        let dropped = run(&dropped_cfg);
        let corrupted = run(&corrupted_cfg);
        assert_eq!(
            dropped.final_test.mean_accuracy.to_bits(),
            corrupted.final_test.mean_accuracy.to_bits(),
            "feedback={feedback:?}: corruption must degrade exactly like drops"
        );
        assert_eq!(
            dropped.total_comm_wh.to_bits(),
            corrupted.total_comm_wh.to_bits(),
            "feedback={feedback:?}: ledger must be bit-identical"
        );
    }
}

#[test]
fn heavy_loss_increases_node_disagreement() {
    let lossless = run(&config(4, TransportKind::Memory));
    let lossy = run(&config(
        4,
        TransportKind::Serialized {
            drop_prob: 0.6,
            corrupt_prob: 0.0,
        },
    ));
    assert!(
        lossy.final_test.std_accuracy >= lossless.final_test.std_accuracy,
        "loss should not tighten consensus: {} vs {}",
        lossy.final_test.std_accuracy,
        lossless.final_test.std_accuracy
    );
}
