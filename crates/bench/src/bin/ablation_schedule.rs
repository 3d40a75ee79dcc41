//! Schedule-structure ablations the paper's design implies but does not
//! evaluate:
//!
//! 1. **block ordering** — train-first (the paper's TTTTSSSS) vs sync-first
//!    (SSSSTTTT) at the same Γ values;
//! 2. **granularity** — at a fixed 50 % train fraction, interleaved (1,1)
//!    vs blocked (4,4) vs coarse (8,8) schedules.

use skiptrain_bench::{banner, pct, render_table, run_cells, HarnessArgs};
use skiptrain_core::experiment::AlgorithmSpec;
use skiptrain_core::presets::cifar_config;
use skiptrain_core::{ExperimentResult, Schedule};

/// The columns both ablations print.
fn row(label: &str, r: &ExperimentResult) -> Vec<String> {
    vec![
        label.to_string(),
        pct(r.final_test.mean_accuracy),
        pct(r.final_test.std_accuracy),
        format!("{:.2}", r.total_training_wh),
    ]
}

fn main() {
    let args = HarnessArgs::parse();
    let mut base = cifar_config(args.scale, args.seed);
    args.apply(&mut base);
    base.eval_every = usize::MAX;

    banner("ablation 1: block ordering at Γ=(4,4)");
    let orderings = [
        ("train-first TTTTSSSS", Schedule::new(4, 4)),
        ("sync-first SSSSTTTT", Schedule::new(4, 4).with_offset(4)),
    ];
    let cells = orderings.iter().map(|(label, schedule)| {
        let mut cfg = base.clone();
        cfg.algorithm = AlgorithmSpec::SkipTrain(*schedule);
        cfg.name = format!("order-{label}");
        cfg
    });
    let rows: Vec<Vec<String>> = orderings
        .iter()
        .zip(run_cells(cells.collect()))
        .map(|((label, _), r)| row(label, &r))
        .collect();
    println!(
        "{}",
        render_table(&["ordering", "acc%", "std", "energy Wh"], &rows)
    );
    println!(
        "note: sync-first front-loads mixing of the random initial models; the paper\n\
         implicitly uses train-first. Final-round evaluation lands after a sync block\n\
         for train-first and after a train block for sync-first, which is most of any\n\
         difference observed (the Figure-4 sawtooth)."
    );

    banner("ablation 2: granularity at 50% train fraction");
    let granularities = [
        ("interleaved (1,1)", Schedule::new(1, 1)),
        ("paper blocks (4,4)", Schedule::new(4, 4)),
        ("coarse blocks (8,8)", Schedule::new(8, 8)),
    ];
    let cells = granularities.iter().map(|(label, schedule)| {
        let mut cfg = base.clone();
        cfg.algorithm = AlgorithmSpec::SkipTrain(*schedule);
        cfg.name = format!("granularity-{label}");
        cfg.eval_every = schedule.period();
        cfg
    });
    let rows: Vec<Vec<String>> = granularities
        .iter()
        .zip(run_cells(cells.collect()))
        .map(|((label, _), r)| {
            let mut row = row(label, &r);
            row.push(r.node_train_events.to_string());
            row
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["schedule", "acc%", "std", "energy Wh", "train events"],
            &rows
        )
    );
    println!(
        "\nreading: energy is identical at equal train fraction; accuracy differences\n\
         isolate the value of *consecutive* synchronization rounds (multiple gossip\n\
         steps compound per §2's mixing argument)."
    );
}
