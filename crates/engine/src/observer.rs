//! Round-loop observation hooks.
//!
//! The executor knows *how* to run a round; what each figure, table, or
//! production monitor wants to *record* about it varies widely. A
//! [`RoundObserver`] receives callbacks at the three interesting points of
//! the round loop — round start, round end, and evaluation — with mutable
//! access to the [`Simulation`] so it can compute derived quantities
//! (mean-model accuracy, consensus disagreement, battery state) without the
//! driver hard-coding them.
//!
//! The built-in observers are the two the runner attaches to every run:
//! the accuracy/energy learning curve ([`CurveObserver`]) and the
//! averaged-model curve of Figure 1 ([`MeanModelObserver`]).
//!
//! `on_round_end` and `on_eval` return [`ControlFlow`]: `Break(())` stops
//! the experiment after the current round, letting observers implement
//! early-exit policies.

use crate::executor::{RoundAction, Simulation};
use crate::metrics::{AccuracyPoint, EvalStats};
use skiptrain_data::Dataset;
use std::ops::ControlFlow;
use std::sync::Arc;

/// What is about to happen in one round.
#[derive(Debug)]
pub struct RoundCtx<'a> {
    /// Round index (0-based).
    pub round: usize,
    /// Per-node actions the policy chose for this round.
    pub actions: &'a [RoundAction],
}

/// What happened in one completed round.
#[derive(Debug)]
pub struct RoundReport<'a> {
    /// Round index (0-based).
    pub round: usize,
    /// The actions the policy requested this round (battery and churn
    /// gating may have demoted some nodes afterwards).
    pub actions: &'a [RoundAction],
    /// Number of nodes that ran local training this round, after gating
    /// ([`Simulation::last_trained_nodes`]).
    pub trained_nodes: usize,
    /// Mean training loss over the nodes that trained, if any did.
    pub train_loss: Option<f32>,
    /// Training energy spent in this round (Wh, all nodes).
    pub round_training_wh: f64,
    /// Communication energy spent in this round (Wh, all nodes).
    pub round_comm_wh: f64,
    /// Cumulative total energy after this round (Wh).
    pub cumulative_wh: f64,
}

/// One periodic evaluation.
#[derive(Debug)]
pub struct EvalReport<'a> {
    /// Round count at the evaluation point (1-based: evaluated after this
    /// many rounds).
    pub round: usize,
    /// Cross-node accuracy statistics on the test set.
    pub stats: &'a EvalStats,
    /// Cumulative total energy (Wh).
    pub total_wh: f64,
    /// Cumulative training energy (Wh).
    pub training_wh: f64,
}

/// Callbacks threaded through the round loop.
///
/// All methods default to no-ops so implementors override only what they
/// need. Returning `ControlFlow::Break(())` from `on_round_end` or
/// `on_eval` stops the run after the current round.
pub trait RoundObserver: Send {
    /// Called before a round's local-compute phase, with the actions the
    /// policy decided.
    fn on_round_start(&mut self, _sim: &Simulation, _ctx: &RoundCtx<'_>) {}

    /// Called after a round's aggregate + energy-accounting phases.
    fn on_round_end(
        &mut self,
        _sim: &mut Simulation,
        _report: &RoundReport<'_>,
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// Called after each periodic evaluation.
    fn on_eval(&mut self, _sim: &mut Simulation, _report: &EvalReport<'_>) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// Records the accuracy/energy learning curve: one [`AccuracyPoint`] per
/// evaluation.
#[derive(Debug, Default)]
pub struct CurveObserver {
    points: Vec<AccuracyPoint>,
}

impl CurveObserver {
    /// An empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the observer, yielding the recorded curve.
    pub fn into_points(self) -> Vec<AccuracyPoint> {
        self.points
    }
}

impl RoundObserver for CurveObserver {
    fn on_eval(&mut self, _sim: &mut Simulation, report: &EvalReport<'_>) -> ControlFlow<()> {
        self.points.push(AccuracyPoint {
            round: report.stats.round,
            mean_accuracy: report.stats.mean_accuracy,
            std_accuracy: report.stats.std_accuracy,
            mean_loss: report.stats.mean_loss,
            cumulative_energy_wh: report.total_wh,
            training_energy_wh: report.training_wh,
        });
        ControlFlow::Continue(())
    }
}

/// Records the accuracy of the *averaged* model at every evaluation point —
/// the hypothetical all-reduce curve of Figure 1.
#[derive(Debug)]
pub struct MeanModelObserver {
    test: Arc<Dataset>,
    max_samples: usize,
    curve: Vec<(usize, f32)>,
}

impl MeanModelObserver {
    /// Evaluates the mean model on (a fixed subsample of) `test`.
    pub fn new(test: Arc<Dataset>, max_samples: usize) -> Self {
        Self {
            test,
            max_samples,
            curve: Vec::new(),
        }
    }

    /// Consumes the observer, yielding the `(round, accuracy)` curve.
    pub fn into_curve(self) -> Vec<(usize, f32)> {
        self.curve
    }
}

impl RoundObserver for MeanModelObserver {
    fn on_eval(&mut self, sim: &mut Simulation, report: &EvalReport<'_>) -> ControlFlow<()> {
        let (accuracy, _) = sim.evaluate_mean_model(&self.test, self.max_samples);
        self.curve.push((report.round, accuracy));
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimulationConfig;
    use skiptrain_data::synth::{MixtureSpec, MixtureTask};
    use skiptrain_nn::Sequential;
    use skiptrain_topology::regular::random_regular;
    use skiptrain_topology::MixingMatrix;

    fn tiny_sim(n: usize) -> (Simulation, Arc<Dataset>) {
        let spec = MixtureSpec {
            num_classes: 3,
            feature_dim: 5,
            modes_per_class: 1,
            separation: 1.8,
            noise: 0.4,
        };
        let task = MixtureTask::new(spec, 17);
        let datasets: Vec<Dataset> = (0..n).map(|i| task.sample(40, i as u64)).collect();
        let test = Arc::new(task.sample(120, 999));
        let models: Vec<Sequential> = (0..n)
            .map(|i| skiptrain_nn::zoo::mlp(&[5, 8, 3], i as u64))
            .collect();
        let graph = random_regular(n, 2, 3);
        let mixing = MixingMatrix::metropolis_hastings(&graph);
        let config = SimulationConfig::minimal(3, 8, 2, 0.2);
        (
            Simulation::new(models, datasets, graph, mixing, config),
            test,
        )
    }

    fn eval_and_notify(
        sim: &mut Simulation,
        test: &Arc<Dataset>,
        observers: &mut [&mut dyn RoundObserver],
    ) -> ControlFlow<()> {
        let stats = sim.evaluate(test, usize::MAX);
        let report = EvalReport {
            round: sim.round(),
            stats: &stats,
            total_wh: sim.ledger().total_wh(),
            training_wh: sim.ledger().total_training_wh(),
        };
        for obs in observers {
            if obs.on_eval(sim, &report).is_break() {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }

    #[test]
    fn curve_and_mean_model_observers_record_per_eval() {
        let (mut sim, test) = tiny_sim(6);
        let mut curve = CurveObserver::new();
        let mut mean = MeanModelObserver::new(Arc::clone(&test), usize::MAX);
        for _ in 0..3 {
            sim.run_round(&[RoundAction::Train; 6]);
            let mut observers: [&mut dyn RoundObserver; 2] = [&mut curve, &mut mean];
            assert!(eval_and_notify(&mut sim, &test, &mut observers).is_continue());
        }
        let (points, mean) = (curve.into_points(), mean.into_curve());
        assert_eq!(points.len(), 3);
        assert_eq!(mean.len(), 3);
        // rounds are recorded in execution order
        assert_eq!(mean[0].0, 1);
        assert_eq!(points[2].round, 3);
    }
}
