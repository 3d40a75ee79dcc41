//! The event engine's timeline, replayed on a `(time, seq)` priority queue.
//!
//! This is the formulation the engine's three-pass timeline replaced:
//! every phase schedules its events on one queue and handles them in pop
//! order, earliest tick first and insertion order within a tick.

use crate::Row;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The timeline's event vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    PolicyTick,
    Leave(usize),
    Join(usize),
    TrainComplete(usize),
    MessageArrive(u32, u32),
    EvalTick,
}

/// `(time, seq)`-keyed queue: earliest tick first, insertion order within
/// a tick.
#[derive(Default)]
struct Queue(BinaryHeap<Reverse<(u64, u64, Kind)>>, u64);

impl Queue {
    fn push(&mut self, time: u64, kind: Kind) {
        self.0.push(Reverse((time, self.1, kind)));
        self.1 += 1;
    }

    fn pop(&mut self) -> Option<(u64, Kind)> {
        self.0.pop().map(|Reverse((t, _, kind))| (t, kind))
    }
}

/// One round's churn: a present node leaves when its draw is below
/// `leave_prob`, an absent one rejoins when its draw is below
/// `rejoin_prob`.
#[derive(Debug, Clone, Copy)]
pub struct Churn<'a> {
    /// Probability a present node leaves.
    pub leave_prob: f64,
    /// Probability an absent node rejoins.
    pub rejoin_prob: f64,
    /// One uniform draw in `[0, 1)` per node, in node order.
    pub draws: &'a [f64],
}

/// Everything the timeline carries from round to round, and what the
/// last round decided.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Per-node virtual clock; an absent node's clock stands still.
    pub clocks: Vec<u64>,
    /// Who is in the fleet after the last round's churn.
    pub present: Vec<bool>,
    /// The last round's end tick.
    pub now: u64,
    /// Events handled so far.
    pub events: u64,
    /// Messages that missed their round's deadline so far.
    pub late_messages: u64,
    /// Rejoins so far.
    pub joins: u64,
    /// Departures so far.
    pub leaves: u64,
    /// The last round's late messages `(src, dst)`, sorted.
    pub late: Vec<(u32, u32)>,
}

impl Timeline {
    /// `n` present nodes at tick 0.
    pub fn new(n: usize) -> Self {
        Self {
            clocks: vec![0; n],
            present: vec![true; n],
            now: 0,
            events: 0,
            late_messages: 0,
            joins: 0,
            leaves: 0,
            late: Vec::new(),
        }
    }

    /// Replays one round over the mixing `rows`:
    /// - a policy tick at `now`, then the churn draws in node order;
    /// - each present node completes its compute at its clock plus
    ///   `cost[i]` ticks;
    /// - each present node receives from each present neighbour of its
    ///   row, at the sender's completion plus `latency(src, dst)`;
    /// - under a deadline (`slack` is `Some`) a message later than the
    ///   last completion plus the slack is late, and a round with a late
    ///   message ends at the deadline; otherwise it ends at its last
    ///   completion or arrival;
    /// - an eval tick at the round's end, where every present clock
    ///   resynchronises.
    pub fn round(
        &mut self,
        rows: &[Row],
        churn: Option<Churn<'_>>,
        cost: &[u64],
        latency: impl Fn(usize, usize) -> u64,
        slack: Option<u64>,
    ) {
        let n = self.present.len();
        let mut q = Queue::default();

        q.push(self.now, Kind::PolicyTick);
        if let Some(churn) = churn {
            for (i, &u) in churn.draws.iter().enumerate().take(n) {
                if self.present[i] && u < churn.leave_prob {
                    q.push(self.now, Kind::Leave(i));
                } else if !self.present[i] && u < churn.rejoin_prob {
                    q.push(self.now, Kind::Join(i));
                }
            }
        }
        while let Some((t, kind)) = q.pop() {
            self.events += 1;
            match kind {
                Kind::Leave(i) => {
                    self.present[i] = false;
                    self.leaves += 1;
                }
                Kind::Join(i) => {
                    self.present[i] = true;
                    self.clocks[i] = t;
                    self.joins += 1;
                }
                _ => {}
            }
        }

        for i in (0..n).filter(|&i| self.present[i]) {
            let ticks = cost.get(i).copied().unwrap_or(0);
            q.push(self.clocks[i] + ticks, Kind::TrainComplete(i));
        }
        let mut completions = self.clocks.clone();
        let mut latest = self.now;
        while let Some((t, Kind::TrainComplete(i))) = q.pop() {
            self.events += 1;
            completions[i] = t;
            latest = latest.max(t);
        }

        for (dst, row) in rows.iter().enumerate().take(n) {
            if !self.present[dst] {
                continue;
            }
            for &(j, _) in row {
                let src = j as usize;
                if src != dst && self.present[src] {
                    let arrival = completions[src] + latency(src, dst);
                    q.push(arrival, Kind::MessageArrive(j, dst as u32));
                }
            }
        }
        let deadline = slack.map_or(u64::MAX, |slack| latest.saturating_add(slack));
        self.late.clear();
        let mut end = latest;
        while let Some((t, Kind::MessageArrive(src, dst))) = q.pop() {
            self.events += 1;
            if t > deadline {
                self.late.push((src, dst));
                self.late_messages += 1;
            } else {
                end = end.max(t);
            }
        }
        self.late.sort_unstable();
        if !self.late.is_empty() {
            end = deadline;
        }

        q.push(end, Kind::EvalTick);
        while let Some((t, _)) = q.pop() {
            self.events += 1;
            self.now = t;
        }
        for i in (0..n).filter(|&i| self.present[i]) {
            self.clocks[i] = self.now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_deadline_with_one_late_edge() {
        // two nodes, each 100 ticks of compute; 0 → 1 takes 10 ticks,
        // 1 → 0 takes 50, and the deadline is 20 ticks after tick 100
        let rows = vec![vec![(0, 0.5f32), (1, 0.5)], vec![(0, 0.5), (1, 0.5)]];
        let latency = |src: usize, _: usize| if src == 0 { 10 } else { 50 };
        let mut t = Timeline::new(2);
        t.round(&rows, None, &[100, 100], latency, Some(20));
        assert_eq!(t.late, vec![(1, 0)]);
        assert_eq!(t.late_messages, 1);
        assert_eq!(
            t.now, 120,
            "a round with a late message runs to its deadline"
        );
        assert_eq!(t.clocks, vec![120, 120]);
        // policy tick, two completions, two arrivals, eval tick
        assert_eq!(t.events, 6);
        // without the deadline the same round waits for the slow message
        let mut barrier = Timeline::new(2);
        barrier.round(&rows, None, &[100, 100], latency, None);
        assert!(barrier.late.is_empty());
        assert_eq!(barrier.now, 150);
    }

    #[test]
    fn a_departed_node_neither_computes_nor_sends_and_its_clock_stands() {
        let rows = vec![vec![(0, 0.5f32), (1, 0.5)], vec![(0, 0.5), (1, 0.5)]];
        let mut t = Timeline::new(2);
        let churn = Churn {
            leave_prob: 0.5,
            rejoin_prob: 0.5,
            draws: &[0.9, 0.1],
        };
        t.round(&rows, Some(churn), &[30, 30], |_, _| 5, None);
        assert_eq!(t.present, vec![true, false]);
        assert_eq!((t.leaves, t.joins), (1, 0));
        assert_eq!(t.clocks, vec![30, 0]);
        // policy tick, one leave, one completion, no arrival, eval tick
        assert_eq!(t.events, 4);
        // the same draws bring node 1 back at the next boundary
        t.round(&rows, Some(churn), &[30, 30], |_, _| 5, None);
        assert_eq!(t.present, vec![true, true]);
        assert_eq!(t.now, 65);
    }
}
