//! The per-edge energy ledger of a round, replayed event by event.

use crate::Row;

/// Which side of a message an event charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The sender's transmit attempt.
    Tx,
    /// The receiver's receipt of a message that arrived.
    Rx,
}

/// Per-node byte totals and every charge in the order it was made.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Bytes each node transmitted (attempts, lost or not).
    pub tx_bytes: Vec<u64>,
    /// Bytes each node received.
    pub rx_bytes: Vec<u64>,
    /// `(node, side, bytes)`, one per charge, in charge order.
    pub events: Vec<(usize, Dir, u64)>,
}

impl Ledger {
    /// An empty ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            tx_bytes: vec![0; n],
            rx_bytes: vec![0; n],
            events: Vec::new(),
        }
    }

    /// Charges one round of the mixing `rows`. Receiver by receiver, and
    /// along each row in order, every off-diagonal entry `j` of row `i` is
    /// a message `j → i` of `bytes(j, i)` bytes: `j` is charged a transmit
    /// whatever happens to it, and `i` a receive of the same bytes when
    /// `arrived(j, i)`.
    pub fn round(
        &mut self,
        rows: &[Row],
        arrived: impl Fn(usize, usize) -> bool,
        bytes: impl Fn(usize, usize) -> u64,
    ) {
        for (dst, row) in rows.iter().enumerate() {
            for &(src, _) in row {
                let src = src as usize;
                if src == dst {
                    continue;
                }
                let size = bytes(src, dst);
                self.charge(src, Dir::Tx, size);
                if arrived(src, dst) {
                    self.charge(dst, Dir::Rx, size);
                }
            }
        }
    }

    fn charge(&mut self, node: usize, dir: Dir, bytes: u64) {
        let total = match dir {
            Dir::Tx => self.tx_bytes.get_mut(node),
            Dir::Rx => self.rx_bytes.get_mut(node),
        };
        if let Some(total) = total {
            *total += bytes;
        }
        self.events.push((node, dir, bytes));
    }

    /// `node`'s communication energy: the cost of each of its events,
    /// `tx_wh(bytes)` or `rx_wh(bytes)`, added in charge order from `0`.
    pub fn node_wh(
        &self,
        node: usize,
        tx_wh: impl Fn(u64) -> f64,
        rx_wh: impl Fn(u64) -> f64,
    ) -> f64 {
        self.events
            .iter()
            .filter(|&&(at, _, _)| at == node)
            .fold(0.0, |wh, &(_, dir, bytes)| match dir {
                Dir::Tx => wh + tx_wh(bytes),
                Dir::Rx => wh + rx_wh(bytes),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lost_message_charges_its_sender_only() {
        // the path 0 – 1 – 2
        let rows = vec![
            vec![(0, 0.5f32), (1, 0.5)],
            vec![(0, 0.25), (1, 0.5), (2, 0.25)],
            vec![(1, 0.5), (2, 0.5)],
        ];
        let mut ledger = Ledger::new(3);
        // 1 → 2 is lost; 0 → 1 costs 10 bytes, every other message 7
        let bytes = |src: usize, dst: usize| if (src, dst) == (0, 1) { 10 } else { 7 };
        ledger.round(&rows, |src, dst| (src, dst) != (1, 2), bytes);
        assert_eq!(ledger.tx_bytes, vec![10, 14, 7]);
        assert_eq!(ledger.rx_bytes, vec![7, 17, 0]);
        use Dir::{Rx, Tx};
        let want = [
            (1, Tx, 7),
            (0, Rx, 7),
            (0, Tx, 10),
            (1, Rx, 10),
            (2, Tx, 7),
            (1, Rx, 7),
            (1, Tx, 7),
        ];
        assert_eq!(ledger.events, want);
        // node 1: tx 7, rx 10, rx 7, tx 7 at 1 Wh per tx byte, 2 per rx byte
        let wh = ledger.node_wh(1, |b| b as f64, |b| 2.0 * b as f64);
        assert_eq!(wh, 7.0 + 20.0 + 14.0 + 7.0);
    }
}
