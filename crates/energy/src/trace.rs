//! The energy-trace derivation pipeline (§2.3 and §4.2).
//!
//! Reproduces Table 2 of the paper from device profiles and workload specs:
//! per-round training energy for CIFAR-10 / FEMNIST on four phones, and the
//! number of training rounds available under a battery-fraction budget.

use crate::device::{fleet, DeviceKind, DeviceProfile};
use serde::{Deserialize, Serialize};

/// MobileNet-v2 parameter count — the AI Benchmark reference model whose
/// measured inference latency is scaled to the workload's model size.
pub const MOBILENET_V2_PARAMS: usize = 3_538_984;

/// FedScale's empirical rule: training time ≈ 3 × inference time.
pub const FEDSCALE_TRAIN_MULTIPLIER: f64 = 3.0;

/// A training workload as the energy model sees it: the paper's Table 1
/// hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Model parameter count `|x|`.
    pub model_params: usize,
    /// Mini-batch size `|ξ|`.
    pub batch_size: usize,
    /// Local SGD steps per round `E`.
    pub local_steps: usize,
}

impl WorkloadSpec {
    /// The CIFAR-10 workload of Table 1: |x| = 89 834, |ξ| = 32, E = 20.
    pub fn cifar10() -> Self {
        Self {
            model_params: 89_834,
            batch_size: 32,
            local_steps: 20,
        }
    }

    /// The FEMNIST workload of Table 1: |x| = 1 690 046, |ξ| = 16, E = 7.
    pub fn femnist() -> Self {
        Self {
            model_params: 1_690_046,
            batch_size: 16,
            local_steps: 7,
        }
    }

    /// Samples processed per training round.
    pub fn samples_per_round(&self) -> usize {
        self.batch_size * self.local_steps
    }
}

/// Wall-clock duration of one training round on `device`, seconds (Δ of
/// Eq. 2).
pub fn round_duration_s(device: &DeviceProfile, workload: &WorkloadSpec) -> f64 {
    let t_model_ms =
        device.mobilenet_inference_ms * workload.model_params as f64 / MOBILENET_V2_PARAMS as f64;
    FEDSCALE_TRAIN_MULTIPLIER * t_model_ms * 1e-3 * workload.samples_per_round() as f64
}

/// Wall-clock duration of one lockstep round on the `n`-node
/// [`fleet`]: the slowest device's round time — the barrier everyone waits
/// at, and therefore everyone's harvesting window.
pub fn fleet_round_duration_s(n: usize, workload: &WorkloadSpec) -> f64 {
    fleet(n)
        .iter()
        .map(|d| round_duration_s(&d.profile(), workload))
        .fold(0.0f64, f64::max)
}

/// Energy of one training round on `device`, watt-hours (Eq. 2).
pub fn round_energy_wh(device: &DeviceProfile, workload: &WorkloadSpec) -> f64 {
    device.power_w * round_duration_s(device, workload) / 3600.0
}

/// Energy of one training round, milliwatt-hours (the Table 2 unit).
pub fn round_energy_mwh(device: &DeviceProfile, workload: &WorkloadSpec) -> f64 {
    round_energy_wh(device, workload) * 1000.0
}

/// Training rounds until `battery_fraction` of the battery is spent — the
/// per-node budget τ of the constrained setting (§4.2: 10 % for CIFAR-10,
/// 50 % for FEMNIST).
///
/// # Panics
/// Panics unless `0 < battery_fraction <= 1`.
pub fn training_budget_rounds(
    device: &DeviceProfile,
    workload: &WorkloadSpec,
    battery_fraction: f64,
) -> usize {
    assert!(
        battery_fraction > 0.0 && battery_fraction <= 1.0,
        "battery fraction must be in (0, 1]"
    );
    (device.battery_wh * battery_fraction / round_energy_wh(device, workload)).floor() as usize
}

/// One row of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRow {
    /// Device name.
    pub device: String,
    /// Energy per round on CIFAR-10, mWh.
    pub cifar_mwh: f64,
    /// Energy per round on FEMNIST, mWh.
    pub femnist_mwh: f64,
    /// Budget rounds for CIFAR-10 at 10 % battery.
    pub cifar_rounds: usize,
    /// Budget rounds for FEMNIST at 50 % battery.
    pub femnist_rounds: usize,
}

/// Battery fraction used for the CIFAR-10 constrained setting (§4.2).
pub const CIFAR_BATTERY_FRACTION: f64 = 0.10;
/// Battery fraction used for the FEMNIST constrained setting (§4.2).
pub const FEMNIST_BATTERY_FRACTION: f64 = 0.50;

/// Regenerates Table 2 from the device profiles.
pub fn table2() -> Vec<TraceRow> {
    let cifar = WorkloadSpec::cifar10();
    let femnist = WorkloadSpec::femnist();
    DeviceKind::ALL
        .iter()
        .map(|kind| {
            let p = kind.profile();
            TraceRow {
                cifar_mwh: round_energy_mwh(&p, &cifar),
                femnist_mwh: round_energy_mwh(&p, &femnist),
                cifar_rounds: training_budget_rounds(&p, &cifar, CIFAR_BATTERY_FRACTION),
                femnist_rounds: training_budget_rounds(&p, &femnist, FEMNIST_BATTERY_FRACTION),
                device: p.name,
            }
        })
        .collect()
}

/// Stream index for the per-node harvest phase jitter (chained through
/// [`derive_seed`] so harvest randomness never collides with model, data,
/// or topology streams).
pub const HARVEST_PHASE_STREAM: u64 = 0x0BA7_7E21;

/// An energy-harvesting power profile, watts as a function of time.
///
/// Profiles are evaluated in *round* time: one unit of `t` is one
/// simulated round (whose wall-clock length the [`HarvestTrace`] carries),
/// so the same profile works across workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HarvestProfile {
    /// No harvesting — the battery only ever drains.
    None,
    /// Constant power source (bench harvester, mains trickle charger).
    Constant {
        /// Harvest power, watts.
        watts: f64,
    },
    /// Solar-like diurnal cycle: `P(t) = peak · max(0, sin(2π t / period))`
    /// — positive for the day half of each period, zero at night.
    Diurnal {
        /// Peak midday power, watts.
        peak_watts: f64,
        /// Cycle length in rounds.
        period_rounds: f64,
    },
    /// Piecewise-constant profile from measured data: `watts[k]` holds for
    /// round `k`, cycling past the end.
    Piecewise {
        /// One power sample (watts) per round, cycled.
        watts: Vec<f64>,
    },
}

impl HarvestProfile {
    /// Short stable name for reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            HarvestProfile::None => "none",
            HarvestProfile::Constant { .. } => "constant",
            HarvestProfile::Diurnal { .. } => "diurnal",
            HarvestProfile::Piecewise { .. } => "piecewise",
        }
    }

    /// The profile's natural period in rounds (1 for aperiodic profiles),
    /// used to scale per-node phase jitter.
    fn period_rounds(&self) -> f64 {
        match self {
            HarvestProfile::None | HarvestProfile::Constant { .. } => 1.0,
            HarvestProfile::Diurnal { period_rounds, .. } => *period_rounds,
            HarvestProfile::Piecewise { watts } => watts.len() as f64,
        }
    }

    /// Instantaneous power at round-time `t` (fractional rounds allowed).
    pub fn power_w(&self, t: f64) -> f64 {
        match self {
            HarvestProfile::None => 0.0,
            HarvestProfile::Constant { watts } => *watts,
            HarvestProfile::Diurnal {
                peak_watts,
                period_rounds,
            } => {
                let angle = 2.0 * std::f64::consts::PI * t / period_rounds;
                peak_watts * angle.sin().max(0.0)
            }
            HarvestProfile::Piecewise { watts } => {
                let k = (t.rem_euclid(watts.len() as f64)).floor() as usize;
                watts[k.min(watts.len() - 1)]
            }
        }
    }
}

/// A per-fleet harvest trace: one [`HarvestProfile`] shared by all nodes,
/// with a deterministic per-node phase offset (so a fleet under a diurnal
/// profile is not one perfectly synchronized wave), converted to per-round
/// energy through the round's wall-clock duration.
///
/// Phase offsets are drawn once at construction from
/// `stream_rng(derive_seed(seed, HARVEST_PHASE_STREAM), node)` — the
/// workspace's chained-seed discipline, reproducible across thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarvestTrace {
    profile: HarvestProfile,
    /// Wall-clock length of one simulated round, seconds
    /// ([`fleet_round_duration_s`] for a lockstep fleet).
    round_duration_s: f64,
    /// Per-node phase offsets in rounds.
    phase: Vec<f64>,
}

impl HarvestTrace {
    /// Builds a trace for `n` nodes. `jitter_fraction ∈ [0, 1]` scales the
    /// per-node phase offsets: each node is shifted by a uniform draw from
    /// `[0, jitter_fraction · period)` rounds (0 = perfectly synchronized
    /// fleet).
    ///
    /// # Panics
    /// Panics on `n == 0`, a non-positive/non-finite round duration, or a
    /// jitter fraction outside `[0, 1]`.
    pub fn new(
        profile: HarvestProfile,
        round_duration_s: f64,
        n: usize,
        seed: u64,
        jitter_fraction: f64,
    ) -> Self {
        use rand::{RngExt, SeedableRng};
        assert!(n > 0, "empty harvest fleet");
        assert!(
            round_duration_s.is_finite() && round_duration_s > 0.0,
            "round duration must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&jitter_fraction),
            "phase jitter fraction must be in [0, 1]"
        );
        let period = profile.period_rounds();
        let phase_seed = skiptrain_linalg::rng::derive_seed(seed, HARVEST_PHASE_STREAM);
        let phase = (0..n)
            .map(|i| {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(
                    skiptrain_linalg::rng::derive_seed(phase_seed, i as u64),
                );
                rng.random::<f64>() * jitter_fraction * period
            })
            .collect();
        Self {
            profile,
            round_duration_s,
            phase,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    /// True for zero nodes (not constructible via the public API).
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }

    /// The profile driving this trace.
    pub fn profile(&self) -> &HarvestProfile {
        &self.profile
    }

    /// Wall-clock length of one round, seconds.
    pub fn round_duration_s(&self) -> f64 {
        self.round_duration_s
    }

    /// Energy harvested by `node` during `round`, Wh: the profile's power
    /// at the node's phase-shifted round time, over the round duration.
    pub fn energy_wh(&self, node: usize, round: usize) -> f64 {
        let t = round as f64 + self.phase[node];
        self.profile.power_w(t) * self.round_duration_s / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2 of the paper, in row order of `DeviceKind::ALL`.
    const PAPER_TABLE2: [(&str, f64, f64, usize, usize); 4] = [
        ("Xiaomi 12 Pro", 6.5, 22.0, 272, 413),
        ("Samsung Galaxy S22 Ultra", 6.0, 20.0, 324, 492),
        ("OnePlus Nord 2 5G", 2.6, 8.4, 681, 1034),
        ("Xiaomi Poco X3", 8.5, 28.0, 272, 413),
    ];

    #[test]
    fn derived_energies_match_table2_within_rounding() {
        for (row, &(name, cifar, femnist, _, _)) in table2().iter().zip(&PAPER_TABLE2) {
            assert_eq!(row.device, name);
            let cifar_err = (row.cifar_mwh - cifar).abs() / cifar;
            let femnist_err = (row.femnist_mwh - femnist).abs() / femnist;
            assert!(
                cifar_err < 0.03,
                "{name} CIFAR: derived {} vs paper {cifar}",
                row.cifar_mwh
            );
            assert!(
                femnist_err < 0.05,
                "{name} FEMNIST: derived {} vs paper {femnist}",
                row.femnist_mwh
            );
        }
    }

    #[test]
    fn derived_budgets_match_table2_exactly() {
        for (row, &(name, _, _, cifar_rounds, femnist_rounds)) in table2().iter().zip(&PAPER_TABLE2)
        {
            assert_eq!(
                row.cifar_rounds, cifar_rounds,
                "{name}: CIFAR budget {} vs paper {cifar_rounds}",
                row.cifar_rounds
            );
            assert_eq!(
                row.femnist_rounds, femnist_rounds,
                "{name}: FEMNIST budget {} vs paper {femnist_rounds}",
                row.femnist_rounds
            );
        }
    }

    #[test]
    fn femnist_costs_more_than_cifar_per_round() {
        // §4.2: "training on FEMNIST is more energy-demanding due to the
        // larger model size"
        for row in table2() {
            assert!(row.femnist_mwh > 3.0 * row.cifar_mwh);
        }
    }

    #[test]
    fn duration_scales_linearly_with_params() {
        let p = DeviceKind::Xiaomi12Pro.profile();
        let base = WorkloadSpec {
            model_params: 100_000,
            batch_size: 8,
            local_steps: 4,
        };
        let double = WorkloadSpec {
            model_params: 200_000,
            ..base
        };
        let r = round_duration_s(&p, &double) / round_duration_s(&p, &base);
        assert!((r - 2.0).abs() < 1e-9);
    }

    #[test]
    fn duration_scales_with_batch_and_steps() {
        let p = DeviceKind::PocoX3.profile();
        let base = WorkloadSpec {
            model_params: 100_000,
            batch_size: 8,
            local_steps: 4,
        };
        let bigger = WorkloadSpec {
            batch_size: 16,
            local_steps: 8,
            ..base
        };
        let r = round_duration_s(&p, &bigger) / round_duration_s(&p, &base);
        assert!((r - 4.0).abs() < 1e-9);
    }

    #[test]
    fn budget_is_monotone_in_fraction() {
        let p = DeviceKind::GalaxyS22Ultra.profile();
        let w = WorkloadSpec::cifar10();
        let lo = training_budget_rounds(&p, &w, 0.1);
        let hi = training_budget_rounds(&p, &w, 0.5);
        assert!(hi >= 5 * lo - 5 && hi <= 5 * lo + 5, "lo={lo} hi={hi}");
    }

    #[test]
    #[should_panic(expected = "battery fraction")]
    fn rejects_zero_fraction() {
        let p = DeviceKind::PocoX3.profile();
        let _ = training_budget_rounds(&p, &WorkloadSpec::cifar10(), 0.0);
    }

    #[test]
    fn constant_profile_converts_watts_to_wh_per_round() {
        // 2 W over a 1800 s round = 1 Wh, regardless of node or round
        let trace = HarvestTrace::new(HarvestProfile::Constant { watts: 2.0 }, 1800.0, 3, 7, 0.5);
        for node in 0..3 {
            for round in [0usize, 1, 99] {
                assert!((trace.energy_wh(node, round) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn diurnal_profile_is_zero_at_night_and_peaks_at_midday() {
        let p = HarvestProfile::Diurnal {
            peak_watts: 4.0,
            period_rounds: 24.0,
        };
        // midday = quarter period
        assert!((p.power_w(6.0) - 4.0).abs() < 1e-9);
        // night half of the cycle is clamped to zero
        for t in [13.0, 18.0, 23.5] {
            assert_eq!(p.power_w(t), 0.0);
        }
        // integral over a full period is peak·period/π (half-sine mean)
        let steps = 10_000;
        let mean: f64 = (0..steps)
            .map(|k| p.power_w(24.0 * k as f64 / steps as f64))
            .sum::<f64>()
            / steps as f64;
        assert!((mean - 4.0 / std::f64::consts::PI).abs() < 1e-3);
    }

    #[test]
    fn piecewise_profile_cycles_its_samples() {
        let p = HarvestProfile::Piecewise {
            watts: vec![1.0, 0.0, 3.0],
        };
        assert_eq!(p.power_w(0.0), 1.0);
        assert_eq!(p.power_w(1.2), 0.0);
        assert_eq!(p.power_w(2.9), 3.0);
        // cycles past the end
        assert_eq!(p.power_w(3.0), 1.0);
        assert_eq!(p.power_w(7.5), 0.0);
    }

    #[test]
    fn phase_jitter_is_deterministic_and_bounded() {
        let mk = || {
            HarvestTrace::new(
                HarvestProfile::Diurnal {
                    peak_watts: 1.0,
                    period_rounds: 12.0,
                },
                600.0,
                16,
                42,
                0.5,
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b, "same seed must give identical phases");
        // different nodes get different phases (jitter actually applied)
        let e0: Vec<f64> = (0..8).map(|r| a.energy_wh(0, r)).collect();
        let e1: Vec<f64> = (0..8).map(|r| a.energy_wh(1, r)).collect();
        assert_ne!(e0, e1, "per-node phase jitter must desynchronize nodes");
        // a different seed shifts the phases
        let c = HarvestTrace::new(
            HarvestProfile::Diurnal {
                peak_watts: 1.0,
                period_rounds: 12.0,
            },
            600.0,
            16,
            43,
            0.5,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn zero_jitter_synchronizes_the_fleet() {
        let trace = HarvestTrace::new(
            HarvestProfile::Diurnal {
                peak_watts: 2.0,
                period_rounds: 8.0,
            },
            3600.0,
            5,
            9,
            0.0,
        );
        for round in 0..8 {
            let e0 = trace.energy_wh(0, round);
            for node in 1..5 {
                assert_eq!(trace.energy_wh(node, round), e0);
            }
        }
    }
}
