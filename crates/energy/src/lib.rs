//! Energy substrate for the SkipTrain reproduction.
//!
//! The paper builds smartphone energy traces out of three external sources:
//! the Burnout benchmark (sustained power draw), the AI Benchmark
//! (MobileNet-v2 inference latency) and FedScale (training time ≈ 3×
//! inference time). None of those artifacts are available offline, so this
//! crate encodes per-device constants fitted to plausible hardware values
//! such that the *derived* Table 2 (energy per training round and training-
//! round budgets for four phones × two datasets) matches the published one
//! to within rounding — the derivation pipeline itself follows §2.3/§4.2
//! exactly:
//!
//! ```text
//! t_model  = t_mobilenet · |x| / |mobilenet|          (parameter scaling)
//! Δ_round  = 3 · t_model · E · |ξ|                    (FedScale ×3 rule)
//! E_round  = P_hw · Δ_round                           (Eq. 2)
//! τ        = ⌊battery · fraction / E_round⌋           (§4.2 budget rule)
//! ```
//!
//! Modules: [`device`] (profiles), [`trace`] (the pipeline above, plus
//! energy-harvesting traces), [`comm`] (communication energy, §1's 200×
//! claim), [`ledger`] (per-node accounting, Eq. 3), [`budget`]
//! (constrained-setting budget tracking, in integer rounds) and [`battery`]
//! (per-node charge state machines and participation policies).
//!
//! # The battery feedback loop
//!
//! The [`battery`] module turns the crate from a recorder into a
//! controller. Each node owns a charge level (Wh) inside a
//! [`battery::BatteryState`]; a [`trace::HarvestTrace`] recharges it every
//! round (constant, solar-diurnal, or piecewise-from-data power profiles,
//! with deterministic per-node phase jitter), the [`ledger::EnergyLedger`]'s
//! per-node training + tx/rx spend drains it, and a
//! [`battery::BatteryPolicy`] (threshold, hysteresis bands, proportional
//! duty-cycling) decides from the charge fraction whether the node
//! participates — trains *and* gossips — in the next round. Drain and
//! recharge clamp at empty/capacity and every clipped watt-hour is
//! accounted (wasted harvest, unmet deficit), so
//! `charge = initial + harvested − wasted − drained` holds exactly.

pub mod battery;
pub mod budget;
pub mod comm;
pub mod device;
pub mod ledger;
pub mod trace;

pub use battery::{BatteryPolicy, BatterySetup, BatteryState, ParticipationState};
pub use budget::BudgetTracker;
pub use device::{DeviceKind, DeviceProfile};
pub use ledger::EnergyLedger;
pub use trace::{
    round_energy_mwh, training_budget_rounds, HarvestProfile, HarvestTrace, WorkloadSpec,
};
