//! The timed pass's clock: time marks at the observer callbacks, and the
//! estimator built on them.
//!
//! The shared host slows a running thread in bursts of milliseconds, all
//! the time: one-millisecond units of fixed work read 1.00-1.35x their
//! fastest, and no window of a second is ever clean (README, "Estimator").
//! A whole repeat is seconds long, so even the fastest of ten carries the
//! noise of its minute. A run at one thread is also a fixed chain of
//! segments — call to first round, round start to round end, round end to
//! evaluation, one campaign cell to the next — and every repeat walks the
//! same chain on the same inputs, so each segment is timed once per repeat
//! and its *fastest* occurrence is kept. The sum of those minima is the
//! wall the run would have shown on an undisturbed host.
//!
//! The marks cost two clock reads per round and no allocation; they record
//! nothing else, spans stay with the traced pass.

use crate::spans::Clock;
use skiptrain_engine::observer::{EvalReport, RoundCtx, RoundObserver, RoundReport};
use skiptrain_engine::Simulation;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex, PoisonError};

/// Where the observers of one pass leave their marks.
#[derive(Clone)]
pub struct MarkCtx {
    clock: Clock,
    sink: Arc<Mutex<Vec<u64>>>,
}

impl MarkCtx {
    /// A context whose clock starts now.
    pub fn start() -> Self {
        Self {
            clock: Clock::start(),
            sink: Arc::default(),
        }
    }

    /// Nanoseconds on this context's clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// An observer for a run (or campaign cell) of `rounds` rounds, marking
    /// its own creation first.
    pub fn observer(&self, rounds: usize) -> MarkObserver {
        // creation + start/end of every round + at most one eval per round
        // + drop, so the timed loop never regrows it
        let mut at_ns = Vec::with_capacity(3 * rounds + 2);
        at_ns.push(self.clock.now_ns());
        MarkObserver {
            ctx: self.clone(),
            at_ns,
        }
    }

    /// Durations of the segments of the pass that ran from `start_ns` to
    /// `end_ns`: between consecutive marks, whichever observer took them.
    /// Meaningful for a pass that ran one cell at a time.
    pub fn into_segments_ns(self, start_ns: u64, end_ns: u64) -> Vec<u64> {
        let mut at_ns =
            std::mem::take(&mut *self.sink.lock().unwrap_or_else(PoisonError::into_inner));
        at_ns.push(start_ns);
        at_ns.push(end_ns);
        at_ns.sort_unstable();
        at_ns.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// Benchmark-side [`RoundObserver`] of the timed pass: reads the clock when
/// it is made, at every callback and when it is dropped.
pub struct MarkObserver {
    ctx: MarkCtx,
    at_ns: Vec<u64>,
}

impl RoundObserver for MarkObserver {
    fn on_round_start(&mut self, _sim: &Simulation, _ctx: &RoundCtx<'_>) {
        self.at_ns.push(self.ctx.clock.now_ns());
    }

    fn on_round_end(&mut self, _sim: &mut Simulation, _r: &RoundReport<'_>) -> ControlFlow<()> {
        self.at_ns.push(self.ctx.clock.now_ns());
        ControlFlow::Continue(())
    }

    fn on_eval(&mut self, _sim: &mut Simulation, _report: &EvalReport<'_>) -> ControlFlow<()> {
        self.at_ns.push(self.ctx.clock.now_ns());
        ControlFlow::Continue(())
    }
}

impl Drop for MarkObserver {
    fn drop(&mut self) {
        self.at_ns.push(self.ctx.clock.now_ns());
        // A poisoned sink only means another cell panicked; the marks
        // already pushed are intact plain data.
        let mut sink = self.ctx.sink.lock().unwrap_or_else(PoisonError::into_inner);
        sink.append(&mut self.at_ns);
    }
}

/// Per-segment minima over the repeats of one workload.
#[derive(Default)]
pub struct SegmentMinima {
    /// Fastest duration of every segment so far; `None` before the first
    /// repeat and once two repeats had different segment counts.
    best_ns: Option<Vec<u64>>,
    repeats: usize,
}

impl SegmentMinima {
    /// Folds one more repeat in. A repeat with another number of segments
    /// cannot be compared segment by segment: the estimate is dropped for
    /// good.
    pub fn absorb(&mut self, segments_ns: &[u64]) {
        self.repeats += 1;
        if self.repeats == 1 {
            self.best_ns = Some(segments_ns.to_vec());
            return;
        }
        match self.best_ns.as_mut() {
            Some(best) if best.len() == segments_ns.len() => {
                for (slot, &seen) in best.iter_mut().zip(segments_ns) {
                    *slot = (*slot).min(seen);
                }
            }
            _ => self.best_ns = None,
        }
    }

    /// Wall seconds of the pass with every segment at its fastest; `None`
    /// when the repeats did not walk the same segments (or none did).
    pub fn undisturbed_wall_s(&self) -> Option<f64> {
        let best = self.best_ns.as_ref().filter(|best| !best.is_empty())?;
        Some(best.iter().sum::<u64>() as f64 / 1e9)
    }

    /// Segments per repeat.
    pub fn segments(&self) -> usize {
        self.best_ns.as_ref().map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_segment_keeps_its_fastest_occurrence() {
        let mut minima = SegmentMinima::default();
        assert_eq!(minima.undisturbed_wall_s(), None);
        minima.absorb(&[10, 20, 30]);
        assert_eq!(minima.undisturbed_wall_s(), Some(60e-9));
        minima.absorb(&[12, 15, 40]);
        minima.absorb(&[9, 25, 31]);
        assert_eq!(
            minima.undisturbed_wall_s(),
            Some((9 + 15 + 30) as f64 / 1e9)
        );
        assert_eq!(minima.segments(), 3);
    }

    #[test]
    fn a_repeat_with_other_segments_drops_the_estimate() {
        let mut minima = SegmentMinima::default();
        minima.absorb(&[1, 2]);
        minima.absorb(&[1, 2, 3]);
        assert_eq!(minima.undisturbed_wall_s(), None);
        minima.absorb(&[1, 2]);
        assert_eq!(minima.undisturbed_wall_s(), None, "dropped for good");

        let mut unobserved = SegmentMinima::default();
        unobserved.absorb(&[]);
        assert_eq!(unobserved.undisturbed_wall_s(), None);
    }

    #[test]
    fn observers_of_one_pass_leave_one_chain_from_start_to_end() {
        let ctx = MarkCtx::start();
        let start = ctx.now_ns();
        drop(ctx.observer(0));
        // a cell that ran on a worker thread of its own
        let other = ctx.clone();
        std::thread::spawn(move || drop(other.observer(0)))
            .join()
            .expect("observer thread");
        let end = ctx.now_ns();
        // start, (made, dropped) per observer, end: five segments
        let segments = ctx.into_segments_ns(start, end);
        assert_eq!(segments.len(), 5);
        assert_eq!(segments.iter().sum::<u64>(), end - start);
    }
}
