//! Evaluation statistics and the learning-curve point.

use serde::{Deserialize, Serialize};
use skiptrain_linalg::reduce::mean_std;

/// Cross-node accuracy statistics at one evaluation point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalStats {
    /// Round at which the evaluation ran.
    pub round: usize,
    /// Mean top-1 accuracy across nodes.
    pub mean_accuracy: f32,
    /// Standard deviation of accuracy across nodes (the Figure-4 shadow).
    pub std_accuracy: f32,
    /// Minimum node accuracy.
    pub min_accuracy: f32,
    /// Maximum node accuracy.
    pub max_accuracy: f32,
    /// Mean evaluation loss across nodes.
    pub mean_loss: f32,
    /// Per-node accuracies.
    pub per_node_accuracy: Vec<f32>,
}

impl EvalStats {
    /// Builds stats from per-node `(accuracy, loss)` pairs.
    pub fn from_node_results(round: usize, results: &[(f32, f32)]) -> Self {
        let accs: Vec<f32> = results.iter().map(|r| r.0).collect();
        let losses: Vec<f32> = results.iter().map(|r| r.1).collect();
        let (mean_accuracy, std_accuracy) = mean_std(&accs);
        let (mean_loss, _) = mean_std(&losses);
        Self {
            round,
            mean_accuracy,
            std_accuracy,
            min_accuracy: skiptrain_linalg::reduce::min(&accs).unwrap_or(0.0),
            max_accuracy: skiptrain_linalg::reduce::max(&accs).unwrap_or(0.0),
            mean_loss,
            per_node_accuracy: accs,
        }
    }
}

/// One point of an accuracy/energy learning curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyPoint {
    /// Round index.
    pub round: usize,
    /// Mean test accuracy across nodes.
    pub mean_accuracy: f32,
    /// Std of test accuracy across nodes.
    pub std_accuracy: f32,
    /// Mean evaluation loss.
    pub mean_loss: f32,
    /// Cumulative total energy (training + comm) up to this round, Wh.
    pub cumulative_energy_wh: f64,
    /// Cumulative *training* energy up to this round, Wh.
    pub training_energy_wh: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_results() {
        let s = EvalStats::from_node_results(5, &[(0.5, 1.0), (0.7, 2.0), (0.6, 3.0)]);
        assert_eq!(s.round, 5);
        assert!((s.mean_accuracy - 0.6).abs() < 1e-6);
        assert!((s.mean_loss - 2.0).abs() < 1e-6);
        assert_eq!(s.min_accuracy, 0.5);
        assert_eq!(s.max_accuracy, 0.7);
        assert_eq!(s.per_node_accuracy.len(), 3);
    }

    #[test]
    fn stats_serde_roundtrip() {
        let s = EvalStats::from_node_results(2, &[(0.4, 0.9)]);
        let json = serde_json::to_string(&s).unwrap();
        let back: EvalStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.round, 2);
        assert_eq!(back.mean_accuracy, s.mean_accuracy);
    }
}
