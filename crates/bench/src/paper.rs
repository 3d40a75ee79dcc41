//! The paper's published numbers, transcribed once from arXiv:2407.01283.
//! The `paper_claims` binary is the one place they meet a computed number.
//!
//! **The absolute-energy offset.** At the paper's 256 nodes the simulator's
//! fleet spends 1.510 347 Wh per CIFAR-10 training round where Table 3
//! implies 1.510 04 (× 1.000 2036), and 4.972 476 Wh per FEMNIST round where
//! it implies 4.971 46 (× 1.000 2043). The two workloads agree on the factor
//! to within 1e-6, so one constant they share (a device profile or the
//! MobileNet-v2 reference size, not a workload's `|x|`) differs from the
//! one the paper used. It is not per-device rounding: Table 2's printed mWh
//! sum to 1.5104 Wh per CIFAR-10 round. Table 3's absolute energies are
//! therefore checked inside [`ENERGY_BAND`]. No library constant is changed
//! to close the gap, since that would move every simulated Wh; every ratio
//! of two energies is exact.

/// The datasets of every paper grid, in table-row order.
pub const DATASETS: [&str; 2] = ["CIFAR-10", "FEMNIST"];

/// The topology degrees of every paper grid, in table-column order.
pub const DEGREES: [usize; 3] = [6, 8, 10];

/// Relative band around Table 3's absolute energies: the module doc's
/// 2.04e-4 offset, with headroom.
pub const ENERGY_BAND: f64 = 3e-4;

/// The paper's Table 2 in `DeviceKind::ALL` order: device, CIFAR-10 and
/// FEMNIST mWh per training round, CIFAR-10 (10 % battery) and FEMNIST
/// (50 % battery) budget rounds.
pub const TABLE2: [(&str, f64, f64, usize, usize); 4] = [
    ("Xiaomi 12 Pro", 6.5, 22.0, 272, 413),
    ("Samsung Galaxy S22 Ultra", 6.0, 20.0, 324, 492),
    ("OnePlus Nord 2 5G", 2.6, 8.4, 681, 1034),
    ("Xiaomi Poco X3", 8.5, 28.0, 272, 413),
];

/// Table 3's algorithms (unconstrained setting), in row order.
pub const TABLE3_ALGORITHMS: [&str; 2] = ["SkipTrain", "D-PSGD"];

/// Table 3's training energy (Wh), indexed `[dataset][algorithm][degree]`
/// over [`DATASETS`], [`TABLE3_ALGORITHMS`] and [`DEGREES`].
pub const TABLE3_ENERGY_WH: [[[f64; 3]; 2]; 2] = [
    [[755.02, 756.53, 1008.71], [1510.04, 1510.04, 1510.04]],
    [[7457.19, 7457.19, 9942.92], [14914.38, 14914.38, 14914.38]],
];

/// Table 3's average test accuracy (%), same indexing.
pub const TABLE3_ACCURACY_PCT: [[[f64; 3]; 2]; 2] = [
    [[65.09, 65.93, 66.96], [57.55, 60.08, 62.20]],
    [[79.26, 79.32, 79.24], [78.6, 78.69, 78.73]],
];

/// Table 4's algorithms (energy-constrained setting), in row order.
pub const TABLE4_ALGORITHMS: [&str; 3] = ["SkipTrain-constrained", "Greedy", "D-PSGD"];

/// Table 4's energy budget (Wh), indexed `[dataset][algorithm][degree]`
/// over [`DATASETS`], [`TABLE4_ALGORITHMS`] and [`DEGREES`].
///
/// FEMNIST Greedy at 10-regular reads 1 460.41 Wh: 1 000 Wh below both of
/// its row-mates (2 460.41) and below every other FEMNIST budget
/// (2 454–2 486). It is kept as transcribed and is a suspected print or
/// transcription error ([`TABLE4_SUSPECTED_MISPRINT`]).
pub const TABLE4_BUDGET_WH: [[[f64; 3]; 3]; 2] = [
    [
        [462.7, 463.1, 490.55],
        [463.37, 463.7, 491.18],
        [468.11, 468.11, 498.31],
    ],
    [
        [2455.43, 2454.97, 2454.29],
        [2460.41, 2460.41, 1460.41],
        [2485.73, 2485.73, 2485.73],
    ],
];

/// The `[dataset][algorithm][degree]` index of the [`TABLE4_BUDGET_WH`]
/// cell that is a suspected misprint.
pub const TABLE4_SUSPECTED_MISPRINT: [usize; 3] = [1, 1, 2];

/// Table 4's average test accuracy (%), same indexing.
pub const TABLE4_ACCURACY_PCT: [[[f64; 3]; 3]; 2] = [
    [
        [63.50, 63.52, 64.33],
        [54.39, 56.57, 57.86],
        [51.57, 53.98, 56.36],
    ],
    [
        [78.27, 78.26, 78.23],
        [77.25, 77.45, 77.60],
        [77.05, 77.34, 77.54],
    ],
];

/// The paper's Figure 3 validation-accuracy grids (%), one per degree of
/// [`DEGREES`], each indexed `[Γ_sync − 1][Γ_train − 1]`.
pub const FIG3_VAL_ACC: [[[f64; 4]; 4]; 3] = [
    [
        [59.7, 61.4, 63.1, 63.4],
        [60.6, 64.1, 65.0, 65.6],
        [58.9, 63.7, 65.7, 65.8],
        [57.0, 63.2, 65.6, 66.1],
    ],
    [
        [60.3, 62.5, 64.2, 64.9],
        [61.5, 65.0, 66.3, 66.1],
        [59.0, 64.6, 66.3, 66.3],
        [56.6, 63.3, 65.9, 66.0],
    ],
    [
        [61.3, 64.4, 65.4, 65.9],
        [62.7, 66.0, 66.3, 66.8],
        [59.4, 64.9, 66.5, 66.2],
        [56.8, 64.0, 65.6, 66.1],
    ],
];

/// The paper's Figure 3 energy grid (Wh, CIFAR-10), same indexing.
pub const FIG3_ENERGY_WH: [[f64; 4]; 4] = [
    [755.0, 1007.0, 1133.0, 1208.0],
    [504.0, 755.0, 906.0, 1009.0],
    [378.0, 604.0, 757.0, 864.0],
    [302.0, 504.0, 648.0, 755.0],
];

/// §1: training energy of 256-node, 1 000-round, 6-regular D-PSGD on
/// CIFAR-10 (kWh).
pub const CLAIM_TRAINING_KWH: f64 = 1.51;
/// §1: communication + aggregation energy for the same run (Wh).
pub const CLAIM_COMM_WH: f64 = 7.0;
/// §1: training is "more than 200×" costlier than communication.
pub const CLAIM_MIN_RATIO: f64 = 200.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_energy_halves_under_skiptrain() {
        // SkipTrain's 6-regular energy is half of D-PSGD's (Γ = (4,4)).
        for dataset in &TABLE3_ENERGY_WH {
            assert!((dataset[0][0] * 2.0 - dataset[1][0]).abs() < 1.0);
        }
    }

    #[test]
    fn fig3_energy_is_monotone_in_gamma_train() {
        for row in &FIG3_ENERGY_WH {
            for gt in 0..3 {
                assert!(row[gt] < row[gt + 1]);
            }
        }
    }

    #[test]
    fn claims_are_consistent() {
        let ratio = CLAIM_TRAINING_KWH * 1000.0 / CLAIM_COMM_WH;
        assert!(
            ratio > CLAIM_MIN_RATIO,
            "claimed ratio {ratio} below {CLAIM_MIN_RATIO}"
        );
    }
}
