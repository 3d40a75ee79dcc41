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
//! The built-in observers are the two the runner attaches to every run —
//! the accuracy/energy learning curve ([`CurveObserver`]) and the
//! averaged-model curve of Figure 1 ([`MeanModelObserver`]) — and the two
//! the campaign tests drive the hook mechanism through: per-round energy
//! streaming ([`EnergyTraceObserver`]) and stopping at a target accuracy
//! ([`EarlyStop`]).
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

/// One row of the per-round energy stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundEnergy {
    /// Round index (0-based).
    pub round: usize,
    /// Nodes that trained this round.
    pub trained_nodes: usize,
    /// Training energy of this round (Wh).
    pub training_wh: f64,
    /// Communication energy of this round (Wh).
    pub comm_wh: f64,
}

/// Streams per-round energy spending — the observer form of the energy
/// tallies the legacy driver only exposed as end-of-run totals.
#[derive(Debug, Default)]
pub struct EnergyTraceObserver {
    rows: Vec<RoundEnergy>,
}

impl EnergyTraceObserver {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-round rows recorded so far.
    pub fn rows(&self) -> &[RoundEnergy] {
        &self.rows
    }

    /// Total training energy across recorded rounds (Wh).
    pub fn total_training_wh(&self) -> f64 {
        self.rows.iter().map(|r| r.training_wh).sum()
    }
}

impl RoundObserver for EnergyTraceObserver {
    fn on_round_end(&mut self, _sim: &mut Simulation, report: &RoundReport<'_>) -> ControlFlow<()> {
        self.rows.push(RoundEnergy {
            round: report.round,
            trained_nodes: report.trained_nodes,
            training_wh: report.round_training_wh,
            comm_wh: report.round_comm_wh,
        });
        ControlFlow::Continue(())
    }
}

/// Stops the run once mean test accuracy reaches a target.
#[derive(Debug)]
pub struct EarlyStop {
    target_accuracy: f32,
    triggered_at: Option<usize>,
}

impl EarlyStop {
    /// Stops when `stats.mean_accuracy >= target_accuracy`.
    pub fn at_accuracy(target_accuracy: f32) -> Self {
        Self {
            target_accuracy,
            triggered_at: None,
        }
    }

    /// The round count at which the stop triggered, if it did.
    pub fn triggered_at(&self) -> Option<usize> {
        self.triggered_at
    }
}

impl RoundObserver for EarlyStop {
    fn on_eval(&mut self, _sim: &mut Simulation, report: &EvalReport<'_>) -> ControlFlow<()> {
        if report.stats.mean_accuracy >= self.target_accuracy {
            self.triggered_at.get_or_insert(report.round);
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
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

    #[test]
    fn early_stop_breaks_once_target_reached() {
        let (mut sim, test) = tiny_sim(6);
        let mut stop = EarlyStop::at_accuracy(0.0); // any accuracy satisfies
        sim.run_round(&[RoundAction::Train; 6]);
        let mut observers: [&mut dyn RoundObserver; 1] = [&mut stop];
        assert!(eval_and_notify(&mut sim, &test, &mut observers).is_break());
        assert_eq!(stop.triggered_at(), Some(1));
    }

    #[test]
    fn energy_trace_streams_round_deltas() {
        let (mut sim, _test) = tiny_sim(4);
        sim.config_mut().training_energy_wh = vec![1.0, 2.0, 3.0, 4.0];
        let mut trace = EnergyTraceObserver::new();
        let mut prev_train = 0.0;
        let mut prev_comm = 0.0;
        for round in 0..2 {
            let actions = if round == 0 {
                vec![RoundAction::Train; 4]
            } else {
                vec![RoundAction::SyncOnly; 4]
            };
            sim.run_round(&actions);
            let report = RoundReport {
                round,
                actions: &actions,
                trained_nodes: if round == 0 { 4 } else { 0 },
                train_loss: sim.last_train_loss(),
                round_training_wh: sim.ledger().total_training_wh() - prev_train,
                round_comm_wh: sim.ledger().total_comm_wh() - prev_comm,
                cumulative_wh: sim.ledger().total_wh(),
            };
            prev_train = sim.ledger().total_training_wh();
            prev_comm = sim.ledger().total_comm_wh();
            let flow = trace.on_round_end(&mut sim, &report);
            assert!(flow.is_continue());
        }
        assert_eq!(trace.rows().len(), 2);
        assert!((trace.rows()[0].training_wh - 10.0).abs() < 1e-9);
        assert_eq!(trace.rows()[1].training_wh, 0.0);
        assert!((trace.total_training_wh() - 10.0).abs() < 1e-9);
    }
}
