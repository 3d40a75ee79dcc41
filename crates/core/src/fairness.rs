//! Fairness analysis for energy-aware scheduling (§5.1 of the paper).
//!
//! The paper warns that energy-aware participation "can inadvertently bias
//! the system towards high-energy-capacity devices": nodes with small
//! budgets skip more training rounds, so the consensus model may represent
//! their data worse. This module quantifies that effect:
//!
//! * per-class recall of the consensus model,
//! * recall aggregated over the classes *owned* by each device group
//!   (low-budget vs high-budget devices under label sharding),
//! * the budget–recall correlation across nodes.
//!
//! The paper leaves this exploration to future work; the `ablation_fairness`
//! bench binary runs it end to end.

use crate::experiment::{EnergySpec, ExperimentResult};
use serde::{Deserialize, Serialize};
use skiptrain_data::Dataset;
use skiptrain_energy::device::{fleet, DeviceKind};
use skiptrain_nn::zoo::ModelKind;

/// Per-class recall of one model on a test set.
pub fn per_class_recall(model_kind: &ModelKind, params: &[f32], test: &Dataset) -> Vec<f32> {
    let mut model = model_kind.build(0);
    model.load_params(params);
    let logits = model.forward(test.features()).clone();
    let classes = test.num_classes();
    let mut correct = vec![0usize; classes];
    let mut total = vec![0usize; classes];
    for (r, &label) in test.labels().iter().enumerate() {
        total[label as usize] += 1;
        if skiptrain_linalg::reduce::argmax(logits.row(r)) == Some(label as usize) {
            correct[label as usize] += 1;
        }
    }
    correct
        .iter()
        .zip(&total)
        .map(|(&c, &t)| if t == 0 { 0.0 } else { c as f32 / t as f32 })
        .collect()
}

/// Fairness statistics for one device group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupFairness {
    /// Device name.
    pub device: String,
    /// Number of nodes with this device.
    pub nodes: usize,
    /// Mean training budget τ of the group (`None` when unconstrained).
    pub mean_budget: Option<f64>,
    /// Mean consensus-model recall over the classes owned by this group's
    /// nodes.
    pub mean_owned_class_recall: f32,
}

/// Full fairness report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FairnessReport {
    /// Per-class recall of the consensus model.
    pub class_recall: Vec<f32>,
    /// Per device group statistics, in `DeviceKind::ALL` order.
    pub groups: Vec<GroupFairness>,
    /// Recall gap between the best and worst device group.
    pub group_gap: f32,
    /// Pearson correlation between a node's budget and the mean recall of
    /// its owned classes (`None` when budgets are constant).
    pub budget_recall_correlation: Option<f64>,
}

/// Analyzes representation fairness of a finished experiment.
///
/// Under label sharding, each node "owns" the classes of its local shard;
/// a node's data is well represented if the consensus model's recall on its
/// owned classes is high. Grouping nodes by device (the budget proxy)
/// reveals the §5.1 bias.
pub fn analyze(
    result: &ExperimentResult,
    model_kind: &ModelKind,
    test: &Dataset,
    energy: &EnergySpec,
) -> FairnessReport {
    let n = result.nodes;
    let class_recall = per_class_recall(model_kind, &result.final_mean_model, test);
    let budgets = energy.node_budgets(n);
    let devices = fleet(n);

    // per-node mean recall over owned classes
    let node_recall: Vec<f32> = result
        .node_class_sets
        .iter()
        .map(|classes| {
            if classes.is_empty() {
                0.0
            } else {
                classes
                    .iter()
                    .map(|&c| class_recall[c as usize])
                    .sum::<f32>()
                    / classes.len() as f32
            }
        })
        .collect();

    let constrained = energy.battery_fraction.is_some();
    let mut groups = Vec::new();
    for kind in DeviceKind::ALL {
        let members: Vec<usize> = (0..n).filter(|&i| devices[i] == kind).collect();
        if members.is_empty() {
            continue;
        }
        let mean_owned =
            members.iter().map(|&i| node_recall[i]).sum::<f32>() / members.len() as f32;
        let mean_budget = constrained.then(|| {
            members.iter().map(|&i| budgets[i] as f64).sum::<f64>() / members.len() as f64
        });
        groups.push(GroupFairness {
            device: kind.profile().name,
            nodes: members.len(),
            mean_budget,
            mean_owned_class_recall: mean_owned,
        });
    }

    let best = groups
        .iter()
        .map(|g| g.mean_owned_class_recall)
        .fold(f32::MIN, f32::max);
    let worst = groups
        .iter()
        .map(|g| g.mean_owned_class_recall)
        .fold(f32::MAX, f32::min);

    let budget_recall_correlation = constrained
        .then(|| {
            pearson(
                &budgets.iter().map(|&b| b as f64).collect::<Vec<_>>(),
                &node_recall,
            )
        })
        .flatten();

    FairnessReport {
        class_recall,
        groups,
        group_gap: best - worst,
        budget_recall_correlation,
    }
}

/// Pearson correlation; `None` when either side is constant.
fn pearson(x: &[f64], y: &[f32]) -> Option<f64> {
    let n = x.len() as f64;
    if x.is_empty() {
        return None;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b as f64 - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx < 1e-12 || syy < 1e-12 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrain_linalg::Matrix;

    #[test]
    fn per_class_recall_of_perfect_logistic() {
        // 2-feature, 2-class: class = sign of feature 0. Weights chosen to
        // classify perfectly.
        let features = Matrix::from_vec(4, 2, vec![1.0, 0.0, -1.0, 0.0, 2.0, 0.0, -2.0, 0.0]);
        let test = Dataset::new(features, vec![0, 1, 0, 1], 2);
        let kind = ModelKind::Logistic {
            input_dim: 2,
            classes: 2,
        };
        // params: W (2x2 row-major) then b (2): class0 score = +x0, class1 = -x0
        let params = vec![1.0, -1.0, 0.0, 0.0, 0.0, 0.0];
        let recall = per_class_recall(&kind, &params, &test);
        assert_eq!(recall, vec![1.0, 1.0]);
    }

    #[test]
    fn pearson_detects_positive_and_constant() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![0.1f32, 0.2, 0.3, 0.4];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-9);
        let constant = vec![0.5f32; 4];
        assert!(pearson(&x, &constant).is_none());
    }

    #[test]
    fn analyze_runs_on_a_small_experiment() {
        use crate::experiment::AlgorithmSpec;
        use crate::presets::{cifar_config, Scale};
        let mut cfg = cifar_config(Scale::Quick, 3);
        cfg.nodes = 8;
        cfg.rounds = 16;
        cfg.eval_every = 16;
        cfg.eval_max_samples = 200;
        cfg.energy = EnergySpec::cifar10_constrained().scaled_for_rounds(cfg.rounds, 1000);
        cfg.algorithm = AlgorithmSpec::SkipTrainConstrained(crate::Schedule::new(2, 2));
        let data = cfg.data.build(cfg.nodes, cfg.seed);
        let result = crate::run_with_observers(&cfg, &data, &mut []).unwrap();
        let report = analyze(&result, &cfg.model_kind(), &data.test, &cfg.energy);
        assert_eq!(report.class_recall.len(), 10);
        assert_eq!(report.groups.len(), 4);
        assert!(report.group_gap >= 0.0);
        assert!(report.budget_recall_correlation.is_some());
    }
}
