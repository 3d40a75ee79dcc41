//! Repeat pin: a run gives back every heap byte it takes.
//!
//! Validating a config, building its data and running it, thirty times in
//! one process at a thread budget of one, must leave the live heap of the
//! counting allocator where the second repeat left it (the first may fill
//! lazily built process-wide state). Over this loop glibc's own in-use
//! figure (`mallinfo2().uordblks`, which counts chunks parked in its
//! per-thread caches as in use) went 73 520 → 80 624 → 151 344 B after
//! repeats 1, 2 and 30 while the live bytes read 21 637 B after every
//! repeat: the growth is the allocator's retention, not memory the
//! program keeps.
//!
//! The counters are process-wide, so this file holds exactly one `#[test]`.

use skiptrain_bench::perf::{live_bytes, CountingAllocator};
use skiptrain_core::{
    cifar_config, run_with_observers, AlgorithmSpec, Experiment, Scale, Schedule,
};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const REPEATS: usize = 30;

#[test]
fn thirty_repeats_of_a_run_leave_the_live_heap_where_the_second_left_it() {
    // train and sync rounds, two evaluations
    let mut cfg = cifar_config(Scale::Quick, 5);
    cfg.nodes = 12;
    cfg.rounds = 8;
    cfg.eval_every = 4;
    cfg.algorithm = AlgorithmSpec::SkipTrain(Schedule::new(1, 3));
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool builder is infallible");
    let mut live_after = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        one_thread.install(|| {
            let experiment = Experiment::from_config(cfg.clone()).expect("the preset is valid");
            let data = experiment.build_data();
            let result = run_with_observers(experiment.config(), &data, &mut [])
                .expect("the preset is valid");
            black_box(result);
        });
        live_after.push(live_bytes());
    }
    assert_eq!(
        live_after[REPEATS - 1],
        live_after[1],
        "live heap after each repeat: {live_after:?}"
    );
}
