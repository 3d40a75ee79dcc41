//! Heterogeneity ablation (§4.7 extended): how the SkipTrain-vs-D-PSGD gap
//! depends on data heterogeneity, sweeping from IID through Dirichlet(α) to
//! the paper's 2-shard extreme.
//!
//! The paper observes its accuracy gains are largest under the pathological
//! CIFAR-10 sharding and small on the milder FEMNIST split; this harness
//! maps the whole curve.

use skiptrain_bench::{banner, exit_unusable, pct, render_table, HarnessArgs};
use skiptrain_core::experiment::{AlgorithmSpec, DataSpec};
use skiptrain_core::presets::cifar_config;
use skiptrain_core::{run_with_observers, Schedule};
use skiptrain_data::stats::label_skew;
use skiptrain_data::Partition;

fn main() {
    let args = HarnessArgs::parse();
    let mut base = cifar_config(args.scale, args.seed);
    args.apply(&mut base);
    base.eval_every = usize::MAX;

    let (dim, spn, test, sep, noise, modes) = match &base.data {
        DataSpec::CifarLike {
            feature_dim,
            samples_per_node,
            test_samples,
            separation,
            noise,
            modes_per_class,
            ..
        } => (
            *feature_dim,
            *samples_per_node,
            *test_samples,
            *separation,
            *noise,
            *modes_per_class,
        ),
        _ => unreachable!("cifar preset"),
    };
    let make_data = |partition: Partition| DataSpec::CifarPartitioned {
        feature_dim: dim,
        samples_per_node: spn,
        test_samples: test,
        partition,
        separation: sep,
        noise,
        modes_per_class: modes,
    };

    let settings: Vec<(String, DataSpec)> = vec![
        ("iid".into(), make_data(Partition::Iid)),
        (
            "dirichlet(1.0)".into(),
            make_data(Partition::Dirichlet { alpha: 1.0 }),
        ),
        (
            "dirichlet(0.2)".into(),
            make_data(Partition::Dirichlet { alpha: 0.2 }),
        ),
        ("2-shard (paper)".into(), base.data.clone()),
    ];

    banner(&format!(
        "heterogeneity sweep ({} nodes, {} rounds, Γ=(4,4))",
        base.nodes, base.rounds
    ));
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (label, data_spec) in settings {
        let mut cfg = base.clone();
        cfg.data = data_spec;
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let skew = label_skew(&data.node_datasets);

        cfg.algorithm = AlgorithmSpec::DPsgd;
        let dpsgd = run_with_observers(&cfg, &data, &mut []).unwrap_or_else(|e| exit_unusable(e));
        cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(4, 4));
        let skiptrain =
            run_with_observers(&cfg, &data, &mut []).unwrap_or_else(|e| exit_unusable(e));

        let gap = (skiptrain.final_test.mean_accuracy - dpsgd.final_test.mean_accuracy) * 100.0;
        rows.push(vec![
            label.clone(),
            format!("{skew:.3}"),
            pct(dpsgd.final_test.mean_accuracy),
            pct(skiptrain.final_test.mean_accuracy),
            format!("{gap:+.1}"),
        ]);
        json_rows.push(serde_json::json!({
            "setting": label,
            "label_skew": skew,
            "dpsgd_acc": dpsgd.final_test.mean_accuracy,
            "skiptrain_acc": skiptrain.final_test.mean_accuracy,
        }));
    }
    println!(
        "{}",
        render_table(
            &[
                "partition",
                "label skew (TV)",
                "d-psgd acc%",
                "skiptrain acc%",
                "gap pp"
            ],
            &rows
        )
    );
    println!(
        "\nreading: SkipTrain's advantage should grow with label skew — synchronization\n\
         rounds pay off exactly when local training biases models apart."
    );

    args.maybe_write_json(&serde_json::json!({
        "experiment": "ablation_heterogeneity",
        "rows": json_rows,
    }));
}
