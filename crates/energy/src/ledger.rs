//! Per-node energy accounting (Eq. 2 and Eq. 3).
//!
//! The ledger accumulates training and communication energy per node and
//! per round; Eq. 3's total is the sum over both axes. Communication energy
//! is recorded as *per-message events* ([`EnergyLedger::record_tx`] /
//! [`EnergyLedger::record_rx`]) carrying the actual wire bytes of each
//! message, so the ledger also exposes byte counters — the engine charges
//! exactly the edges that fired in a round, not an analytic degree formula.
//! The bench harness reads the series out for the accuracy-vs-energy plots
//! (Figures 5 and 6).

use crate::comm::CommEnergyModel;
use serde::{Deserialize, Serialize};

/// Accumulated energy per node, split by cause.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyLedger {
    training_wh: Vec<f64>,
    comm_wh: Vec<f64>,
    /// Bytes transmitted per node (attempted sends).
    tx_bytes: Vec<u64>,
    /// Bytes received per node (delivered messages only).
    rx_bytes: Vec<u64>,
    /// Cumulative total (training + comm) after each closed round.
    round_totals_wh: Vec<f64>,
    /// Virtual-time tick each closed round ended at, parallel to
    /// `round_totals_wh`. Rounds closed without a timestamp
    /// ([`EnergyLedger::end_round`]) advance the last stamp by one, so
    /// untimed runs read as one tick per round. Missing in legacy
    /// serialized ledgers.
    #[serde(default)]
    round_end_ticks: Vec<u64>,
    /// Energy recorded in the currently open round.
    open_round_wh: f64,
}

impl EnergyLedger {
    /// Creates a ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            training_wh: vec![0.0; n],
            comm_wh: vec![0.0; n],
            tx_bytes: vec![0; n],
            rx_bytes: vec![0; n],
            // The per-round history series grow for the life of the run;
            // seeding their capacity keeps steady-state rounds free of
            // amortized doubling reallocations (the round loop's
            // allocation proxy pins 0 B/round) for typical horizons.
            round_totals_wh: Vec::with_capacity(512),
            round_end_ticks: Vec::with_capacity(512),
            open_round_wh: 0.0,
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.training_wh.len()
    }

    /// True when tracking zero nodes.
    pub fn is_empty(&self) -> bool {
        self.training_wh.is_empty()
    }

    /// Records training energy for a node (Wh).
    pub fn record_training(&mut self, node: usize, wh: f64) {
        debug_assert!(wh >= 0.0, "negative energy");
        self.training_wh[node] += wh;
        self.open_round_wh += wh;
    }

    /// Records communication energy for a node (Wh).
    pub fn record_comm(&mut self, node: usize, wh: f64) {
        debug_assert!(wh >= 0.0, "negative energy");
        self.comm_wh[node] += wh;
        self.open_round_wh += wh;
    }

    /// Records one transmitted message of `bytes` wire bytes: charges
    /// `node` the radio's per-byte transmit energy and bumps its byte
    /// counter. Transmission is charged per *attempt* — a dropped message
    /// still cost its sender the radio energy.
    pub fn record_tx(&mut self, node: usize, bytes: u64, comm: &CommEnergyModel) {
        self.tx_bytes[node] += bytes;
        self.record_comm(node, comm.tx_energy_wh(bytes));
    }

    /// Records one received (delivered) message of `bytes` wire bytes:
    /// charges `node` the radio's per-byte receive energy and bumps its
    /// byte counter.
    pub fn record_rx(&mut self, node: usize, bytes: u64, comm: &CommEnergyModel) {
        self.rx_bytes[node] += bytes;
        self.record_comm(node, comm.rx_energy_wh(bytes));
    }

    /// Bytes transmitted by `node` so far (attempted sends).
    pub fn node_tx_bytes(&self, node: usize) -> u64 {
        self.tx_bytes[node]
    }

    /// Bytes received by `node` so far (delivered messages).
    pub fn node_rx_bytes(&self, node: usize) -> u64 {
        self.rx_bytes[node]
    }

    /// Total bytes transmitted over all nodes.
    pub fn total_tx_bytes(&self) -> u64 {
        self.tx_bytes.iter().sum()
    }

    /// Total bytes received (delivered) over all nodes.
    pub fn total_rx_bytes(&self) -> u64 {
        self.rx_bytes.iter().sum()
    }

    /// Closes the current round, pushing the cumulative total onto the
    /// per-round series. The round is stamped one virtual tick after the
    /// previous close; event-driven executions use
    /// [`EnergyLedger::end_round_at`] instead to stamp the real virtual
    /// round-end time.
    pub fn end_round(&mut self) {
        let next = self.round_end_ticks.last().map_or(1, |&t| t + 1);
        self.end_round_at(next);
    }

    /// Closes the current round at virtual tick `ticks` (from the event
    /// engine's clock). Timestamps are pure metadata over the same energy
    /// sums — conservation (per-node totals vs. the cumulative series) is
    /// unaffected by how rounds are stamped.
    pub fn end_round_at(&mut self, ticks: u64) {
        let prev = self.round_totals_wh.last().copied().unwrap_or(0.0);
        self.round_totals_wh.push(prev + self.open_round_wh);
        self.round_end_ticks.push(ticks);
        self.open_round_wh = 0.0;
    }

    /// Virtual-time tick each closed round ended at, parallel to
    /// [`EnergyLedger::cumulative_by_round`].
    pub fn round_end_ticks(&self) -> &[u64] {
        &self.round_end_ticks
    }

    /// Training energy spent by `node` so far (Wh).
    pub fn node_training_wh(&self, node: usize) -> f64 {
        self.training_wh[node]
    }

    /// Communication energy spent by `node` so far (Wh).
    pub fn node_comm_wh(&self, node: usize) -> f64 {
        self.comm_wh[node]
    }

    /// Total training energy over all nodes (Wh) — the quantity Figures 5/6
    /// plot on the x axis.
    pub fn total_training_wh(&self) -> f64 {
        self.training_wh.iter().sum()
    }

    /// Total communication energy over all nodes (Wh).
    pub fn total_comm_wh(&self) -> f64 {
        self.comm_wh.iter().sum()
    }

    /// Eq. 3: total energy over all nodes and rounds (Wh).
    pub fn total_wh(&self) -> f64 {
        self.total_training_wh() + self.total_comm_wh()
    }

    /// Cumulative total energy after each closed round (Wh).
    pub fn cumulative_by_round(&self) -> &[f64] {
        &self.round_totals_wh
    }

    /// Number of closed rounds.
    pub fn rounds(&self) -> usize {
        self.round_totals_wh.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_nodes_and_causes() {
        let mut l = EnergyLedger::new(3);
        l.record_training(0, 1.0);
        l.record_training(2, 2.0);
        l.record_comm(1, 0.5);
        assert_eq!(l.total_training_wh(), 3.0);
        assert_eq!(l.total_comm_wh(), 0.5);
        assert_eq!(l.total_wh(), 3.5);
        assert_eq!(l.node_training_wh(2), 2.0);
        assert_eq!(l.node_comm_wh(1), 0.5);
    }

    #[test]
    fn cumulative_series_is_monotone() {
        let mut l = EnergyLedger::new(2);
        l.record_training(0, 1.0);
        l.end_round();
        l.record_comm(1, 0.25);
        l.end_round();
        l.end_round(); // empty round
        assert_eq!(l.cumulative_by_round(), &[1.0, 1.25, 1.25]);
        assert_eq!(l.rounds(), 3);
    }

    #[test]
    fn tx_rx_events_accumulate_bytes_and_energy() {
        let comm = CommEnergyModel::paper_fit();
        let mut l = EnergyLedger::new(2);
        l.record_tx(0, 1000, &comm);
        l.record_tx(0, 500, &comm);
        l.record_rx(1, 1000, &comm);
        assert_eq!(l.node_tx_bytes(0), 1500);
        assert_eq!(l.node_rx_bytes(0), 0);
        assert_eq!(l.node_rx_bytes(1), 1000);
        assert_eq!(l.total_tx_bytes(), 1500);
        assert_eq!(l.total_rx_bytes(), 1000);
        let expected = comm.tx_energy_wh(1000) + comm.tx_energy_wh(500) + comm.rx_energy_wh(1000);
        assert!((l.total_comm_wh() - expected).abs() < 1e-18);
        assert_eq!(l.total_training_wh(), 0.0);
    }

    #[test]
    fn round_stamps_default_to_one_tick_per_round() {
        let mut l = EnergyLedger::new(1);
        l.end_round();
        l.end_round();
        l.end_round_at(1_000_000);
        assert_eq!(l.round_end_ticks(), &[1, 2, 1_000_000]);
        assert_eq!(l.rounds(), 3);
    }

    #[test]
    fn timestamped_closes_keep_conservation() {
        let mut a = EnergyLedger::new(1);
        a.record_training(0, 1.0);
        a.end_round_at(100);
        a.record_training(0, 2.0);
        a.end_round_at(250);
        // stamps are metadata over the same energy sums
        assert_eq!(a.cumulative_by_round(), &[1.0, 3.0]);
        assert_eq!(a.round_end_ticks(), &[100, 250]);
        assert_eq!(
            *a.cumulative_by_round().last().unwrap(),
            a.total_wh(),
            "cumulative series stays conservation-exact under stamping"
        );
    }
}
