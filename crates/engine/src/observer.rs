//! Round-loop observation hooks.
//!
//! The executor knows *how* to run a round; what each figure, table, or
//! production monitor wants to *record* about it varies widely. A
//! [`RoundObserver`] receives callbacks at the three interesting points of
//! the round loop — round start, round end, and evaluation — with mutable
//! access to the [`Simulation`] so it can compute derived quantities
//! (mean-model accuracy, consensus disagreement, battery state) without the
//! driver hard-coding them. The runner records what a result carries (the
//! learning curve, the mean-model curve) itself, before any observer's
//! `on_eval`; observers are for callers.
//!
//! `on_round_end` and `on_eval` return [`ControlFlow`]: `Break(())` stops
//! the experiment after the current round, letting observers implement
//! early-exit policies.

use crate::executor::{RoundAction, Simulation};
use crate::metrics::EvalStats;
use std::ops::ControlFlow;

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
