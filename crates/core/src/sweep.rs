//! The (Γ_train, Γ_sync) grid search of §4.3 / Figure 3.
//!
//! Implemented as a [`Campaign`]: all |Γ|² cells share one materialized
//! data bundle and run in parallel across worker threads, which is the
//! single biggest wall-clock win in the harness (the legacy implementation
//! ran cells serially). Results are deterministic and identical to serial
//! execution, cell for cell.

use crate::campaign::{Campaign, CampaignRunError};
use crate::experiment::{AlgorithmSpec, ExperimentConfig};
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};

/// One cell of the Figure-3 grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// Γ_train of this cell.
    pub gamma_train: usize,
    /// Γ_sync of this cell.
    pub gamma_sync: usize,
    /// Final mean validation accuracy (the tuning metric, §4.3).
    pub val_accuracy: f32,
    /// Final mean test accuracy.
    pub test_accuracy: f32,
    /// Total training energy spent (Wh).
    pub training_energy_wh: f64,
}

/// Result of a full grid search over one base configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Grid cells in row-major `(Γ_sync, Γ_train)` order.
    pub cells: Vec<SweepCell>,
    /// Γ values swept (both axes).
    pub gammas: Vec<usize>,
}

impl SweepResult {
    /// The best cell: highest validation accuracy, ties broken by lower
    /// energy (§4.3's tie-break rule); `None` for an empty grid.
    pub fn best(&self) -> Option<&SweepCell> {
        self.cells.iter().max_by(|a, b| {
            a.val_accuracy
                .total_cmp(&b.val_accuracy)
                .then(b.training_energy_wh.total_cmp(&a.training_energy_wh))
        })
    }

    /// Cell lookup.
    pub fn cell(&self, gamma_train: usize, gamma_sync: usize) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.gamma_train == gamma_train && c.gamma_sync == gamma_sync)
    }
}

/// Builds the campaign behind [`grid_search`]: one run per
/// `(Γ_sync, Γ_train)` cell in row-major order, every cell sharing the base
/// config's `(data, nodes, seed)` bundle.
pub fn grid_campaign(base: &ExperimentConfig, gammas: &[usize]) -> Campaign {
    let mut configs = Vec::with_capacity(gammas.len() * gammas.len());
    for &gs in gammas {
        for &gt in gammas {
            let mut cfg = base.clone();
            let schedule = Schedule::new(gt, gs);
            cfg.algorithm = AlgorithmSpec::SkipTrain(schedule);
            cfg.name = format!("{}/sweep-gt{gt}-gs{gs}", base.name);
            cfg.eval_every = usize::MAX; // only final evaluation matters
            configs.push(cfg);
        }
    }
    Campaign::from_configs(configs)
}

/// Runs the grid search over `gammas × gammas` on a shared dataset built
/// once from `base`, with cells executing in parallel.
///
/// The base config's algorithm is replaced by `SkipTrain(Γt, Γs)` per cell.
/// An invalid base configuration or a failed cell is the campaign's typed
/// error ([`Campaign::run`]); an empty grid is an empty result.
pub fn grid_search(
    base: &ExperimentConfig,
    gammas: &[usize],
) -> Result<SweepResult, CampaignRunError> {
    let results = grid_campaign(base, gammas).run()?;
    let cells = results
        .iter()
        .enumerate()
        .map(|(i, result)| SweepCell {
            gamma_train: gammas[i % gammas.len()],
            gamma_sync: gammas[i / gammas.len()],
            val_accuracy: result.final_val_accuracy,
            test_accuracy: result.final_test.mean_accuracy,
            training_energy_wh: result.total_training_wh,
        })
        .collect();
    Ok(SweepResult {
        cells,
        gammas: gammas.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_prefers_accuracy_then_energy() {
        let sweep = SweepResult {
            cells: vec![
                SweepCell {
                    gamma_train: 1,
                    gamma_sync: 1,
                    val_accuracy: 0.6,
                    test_accuracy: 0.6,
                    training_energy_wh: 100.0,
                },
                SweepCell {
                    gamma_train: 2,
                    gamma_sync: 1,
                    val_accuracy: 0.6,
                    test_accuracy: 0.59,
                    training_energy_wh: 50.0,
                },
                SweepCell {
                    gamma_train: 3,
                    gamma_sync: 1,
                    val_accuracy: 0.5,
                    test_accuracy: 0.65,
                    training_energy_wh: 10.0,
                },
            ],
            gammas: vec![1, 2, 3],
        };
        let best = sweep.best().expect("three cells");
        assert_eq!(
            (best.gamma_train, best.gamma_sync),
            (2, 1),
            "tie must break toward low energy"
        );
    }

    #[test]
    fn an_empty_result_has_no_best_cell() {
        let sweep: SweepResult = serde_json::from_str(r#"{"cells": [], "gammas": []}"#).unwrap();
        assert!(sweep.best().is_none());
    }

    #[test]
    fn cell_lookup() {
        let sweep = SweepResult {
            cells: vec![SweepCell {
                gamma_train: 4,
                gamma_sync: 2,
                val_accuracy: 0.1,
                test_accuracy: 0.1,
                training_energy_wh: 1.0,
            }],
            gammas: vec![4],
        };
        assert!(sweep.cell(4, 2).is_some());
        assert!(sweep.cell(2, 4).is_none());
    }
}
