//! Set-up peak pin: building a run's data holds every sample once.
//!
//! `DataSpec::build` draws each row of the training pool and of the
//! evaluation pool straight into the node dataset or the evaluation half it
//! ends in, so the heap never holds a pool next to its copies. It used to
//! draw each pool whole and copy every row out (the partition's
//! `materialize`, the split's `split_eval`), which peaked at about twice
//! the returned bundle. The test builds the data of the `train_dpsgd`
//! workload (2-shard partition, so the labels walk runs) and of
//! `sync_wide64` (IID, placed from its shuffle alone) and reads the
//! high-water mark of the counting allocator's live bytes.
//!
//! The counters are process-wide, so this file holds exactly one `#[test]`.

use skiptrain_bench::perf::{live_bytes, peak_live_bytes, reset_peak, CountingAllocator};
use skiptrain_core::DataSpec;
use skiptrain_data::Partition;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const NODES: usize = 64;
const SEED: u64 = 42;

/// What set-up may hold beyond the bundle it returns, per training row.
/// The labels walk keeps a `u32` label per row (4 B); the shards partition
/// adds its by-label order and the node index lists (`usize` each, 16 B):
/// 20 B at once. Placement then holds the index lists and a `(u32, u32)`
/// table (16 B), and the table alone while the rows are drawn. The
/// evaluation split holds its shuffled rows, the test half's list and its
/// table, under 24 B per evaluation row, which is at most 0.4 of a
/// training row here (< 10 B), and the task's cluster centers are 5 KB
/// (< 1 B). 32 B covers the largest of these moments; a pool held next to
/// its copies costs `4 · feature_dim + 4` B per row (132 B and 516 B here).
const PER_ROW_ALLOWANCE: u64 = 32;

#[test]
fn building_the_data_holds_every_sample_once() {
    let train_dpsgd = DataSpec::CifarLike {
        feature_dim: 32,
        samples_per_node: 100,
        test_samples: 2400,
        shards_per_node: 2,
        separation: 0.8,
        noise: 1.1,
        modes_per_class: 4,
    };
    let sync_wide64 = DataSpec::CifarPartitioned {
        feature_dim: 128,
        samples_per_node: 32,
        test_samples: 400,
        partition: Partition::Iid,
        separation: 0.4,
        noise: 1.0,
        modes_per_class: 1,
    };
    for (name, spec) in [("train_dpsgd", train_dpsgd), ("sync_wide64", sync_wide64)] {
        let before = live_bytes();
        reset_peak();
        let bundle = spec.build(NODES, SEED);
        let peak = peak_live_bytes() - before;
        let bundle_bytes = live_bytes() - before;
        let rows = (NODES * spec.samples_per_node()) as u64;
        let bound = bundle_bytes + PER_ROW_ALLOWANCE * rows;
        println!("{name}: set-up peak {peak} B, bundle {bundle_bytes} B, bound {bound} B");
        assert!(
            peak <= bound,
            "{name}: set-up peaked at {peak} B = {:.2}× the {bundle_bytes} B bundle, \
             above the bundle + {PER_ROW_ALLOWANCE} B per training row ({bound} B)",
            peak as f64 / bundle_bytes as f64
        );
        assert!(
            bundle_bytes >= rows * 4 * spec.feature_dim() as u64,
            "{name}: the counter is off"
        );
        assert_eq!(bundle.node_datasets.len(), NODES);
        drop(bundle);
    }
}
