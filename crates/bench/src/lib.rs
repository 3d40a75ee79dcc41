//! Shared harness utilities for the per-figure/per-table regeneration
//! binaries.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --scale quick|medium|paper   simulation scale (default: quick)
//! --seed N                     master seed (default: 42)
//! --nodes N                    override node count
//! --rounds N                   override round count
//! --json PATH                  also dump results as JSON
//! ```
//!
//! The figure binaries print what they measure; `paper_claims` is the one
//! binary that sets measured numbers against the paper's ([`paper`]). The
//! grids several binaries run are defined here once.
//!
//! The crate measures no speed: that is the repo benchmark's job
//! (`benchmark/run.sh`). [`perf`] holds the counting allocator behind the
//! 0 B-per-step test `tests/alloc_pins.rs`.

// The workspace's unsafe is the counting allocator here and the two
// dispatchers in `skiptrain_linalg::simd` (detected `#[target_feature]`
// functions); force every unsafe operation of this crate into an explicit,
// SAFETY-commented block even inside `unsafe fn` bodies.
#![deny(unsafe_op_in_unsafe_fn)]

use skiptrain_core::presets::{cifar_config, femnist_config, Scale};
use skiptrain_core::{
    AlgorithmSpec, Campaign, CampaignReport, EnergySpec, ExperimentConfig, ExperimentResult,
    Schedule, TopologySpec,
};
use skiptrain_engine::AccuracyPoint;
use std::path::PathBuf;

pub mod paper;
pub mod perf;

/// Parsed command-line arguments shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Simulation scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Node-count override.
    pub nodes: Option<usize>,
    /// Round-count override.
    pub rounds: Option<usize>,
    /// Optional JSON output path.
    pub json: Option<PathBuf>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 42,
            nodes: None,
            rounds: None,
            json: None,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| usage(&format!("missing value for {name}")))
            };
            match flag.as_str() {
                "--scale" => {
                    let v = value("--scale");
                    out.scale =
                        Scale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale '{v}'")));
                }
                "--seed" => out.seed = number(value("--seed"), "--seed"),
                "--nodes" => out.nodes = Some(number(value("--nodes"), "--nodes")),
                "--rounds" => out.rounds = Some(number(value("--rounds"), "--rounds")),
                "--json" => out.json = Some(PathBuf::from(value("--json"))),
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        out
    }

    /// Applies overrides to an experiment config.
    pub fn apply(&self, cfg: &mut ExperimentConfig) {
        cfg.seed = self.seed;
        if let Some(n) = self.nodes {
            cfg.nodes = n;
        }
        if let Some(r) = self.rounds {
            cfg.rounds = r;
        }
    }

    /// Writes a JSON value to `--json` if given.
    pub fn maybe_write_json(&self, value: &serde_json::Value) {
        if let Some(path) = &self.json {
            let text = serde_json::to_string_pretty(value).expect("serializable result");
            std::fs::write(path, text).unwrap_or_else(|e| {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("wrote {}", path.display());
        }
    }
}

/// `value` parsed as a number, or a usage error naming `flag`.
fn number<T: std::str::FromStr>(value: String, flag: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad {flag}")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--scale quick|medium|paper] [--seed N] [--nodes N] [--rounds N] [--json PATH]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// Renders an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Exits 2 with `error: {e}`: an unusable config (or journal) is a usage
/// error, like a bad flag.
pub fn exit_unusable(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

/// The one ending of a campaign a bin launched: a `FAILED` line on stderr
/// for every cell that failed all its attempts, and the process exit code —
/// 0 when every cell has a result, 1 otherwise.
pub fn report_exit_code(report: &CampaignReport) -> i32 {
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    i32::from(!report.failures.is_empty())
}

/// Runs `configs` as one parallel [`Campaign`] (cells over the same data
/// spec share one materialized bundle) and returns the results in input
/// order. An invalid cell exits 2 with the typed message naming the run; a
/// cell that fails after validation exits 1 ([`report_exit_code`]).
pub fn run_cells(configs: Vec<ExperimentConfig>) -> Vec<ExperimentResult> {
    let report = Campaign::from_configs(configs)
        .run_resilient()
        .unwrap_or_else(|e| exit_unusable(e));
    match report_exit_code(&report) {
        0 => report.results.into_iter().flatten().collect(),
        code => std::process::exit(code),
    }
}

/// Parameter count of the model `cfg` actually simulates (the byte axes
/// of the compression frontiers; the energy model prices the paper's
/// Table-1 `|x|` instead).
pub fn sim_params(cfg: &ExperimentConfig) -> usize {
    cfg.model_kind().build(0).param_count()
}

/// Reads a learning curve at an energy budget: `(round, accuracy)` of the
/// last evaluation point whose cumulative energy on the chosen axis
/// (`energy`: a point's training Wh, or its training + comm Wh) does not
/// exceed `budget_wh`. On the training axis this is how the paper's
/// Table 4 reads the (not energy-aware) D-PSGD baseline at an energy level
/// matched to the constrained algorithms.
pub fn accuracy_at_energy(
    result: &ExperimentResult,
    energy: impl Fn(&AccuracyPoint) -> f64,
    budget_wh: f64,
) -> Option<(usize, f32)> {
    result
        .test_curve
        .iter()
        .rfind(|p| energy(p) <= budget_wh + 1e-9)
        .map(|p| (p.round, p.mean_accuracy))
}

/// D-PSGD's `(round, accuracy)` at a training-energy level: it is not
/// energy-aware, so Figure 6 and Table 4 read its curve at the Wh the
/// constrained algorithms spent or were allowed (its first point when even
/// that costs more).
pub fn dpsgd_at_wh(result: &ExperimentResult, budget_wh: f64) -> (usize, f32) {
    accuracy_at_energy(result, |p| p.training_energy_wh, budget_wh)
        .unwrap_or((0, result.test_curve[0].mean_accuracy))
}

/// Each of [`paper::DATASETS`]' preset at `scale` and `seed`.
pub fn dataset_presets(scale: Scale, seed: u64) -> [ExperimentConfig; 2] {
    [cifar_config(scale, seed), femnist_config(scale, seed)]
}

/// The cells of the paper's Figure 5 / 6 grids in [`paper::DATASETS`] →
/// [`paper::DEGREES`] order: a base config (the degree's topology, named
/// `{dataset}-{degree}reg`, evaluated once per period of the degree's tuned
/// Γ), that Γ, and the dataset's §4.2 constrained energy with its battery
/// fraction rescaled so τ/T_train at the base's rounds is the paper's.
fn grid_cells(args: &HarnessArgs) -> Vec<(ExperimentConfig, Schedule, EnergySpec)> {
    let tags = ["cifar", "femnist"];
    let constrained = [
        EnergySpec::cifar10_constrained(),
        EnergySpec::femnist_constrained(),
    ];
    let paper = dataset_presets(Scale::Paper, args.seed);
    let mut cells = Vec::new();
    for (d, preset) in dataset_presets(args.scale, args.seed).iter().enumerate() {
        for degree in paper::DEGREES {
            let mut base = preset.clone();
            args.apply(&mut base);
            let schedule = Schedule::tuned_for_degree(degree);
            let scaled = constrained[d].scaled_for_rounds(base.rounds, paper[d].rounds);
            base.name = format!("{}-{degree}reg", tags[d]);
            base.topology = TopologySpec::Regular { degree };
            base.eval_every = schedule.period();
            cells.push((base, schedule, scaled));
        }
    }
    cells
}

fn grid_run(base: &ExperimentConfig, algo: AlgorithmSpec, energy: &EnergySpec) -> ExperimentConfig {
    let mut cfg = base.clone();
    cfg.name = format!("{}-{}", base.name, algo.name());
    (cfg.algorithm, cfg.energy) = (algo, energy.clone());
    cfg
}

/// Figure 5's grid, whose end points are Table 3: per cell, D-PSGD then
/// SkipTrain at the degree's tuned Γ (12 configs).
pub fn unconstrained_grid(args: &HarnessArgs) -> Vec<ExperimentConfig> {
    let mut configs = Vec::new();
    for (base, schedule, _) in grid_cells(args) {
        let skiptrain = AlgorithmSpec::SkipTrain(schedule);
        configs.push(grid_run(&base, AlgorithmSpec::DPsgd, &base.energy));
        configs.push(grid_run(&base, skiptrain, &base.energy));
    }
    configs
}

/// Figure 6's grid, whose end points are Table 4: per cell, unconstrained
/// D-PSGD, then Greedy and SkipTrain-constrained on the cell's budgets (18
/// configs); and per cell the training Wh Table 4 reads D-PSGD at, the Wh
/// the fleet is allowed: every node's budget τ_i at its round cost.
pub fn constrained_grid(args: &HarnessArgs) -> (Vec<ExperimentConfig>, Vec<f64>) {
    let (mut configs, mut allowed) = (Vec::new(), Vec::new());
    for (base, schedule, scaled) in grid_cells(args) {
        let budgets = scaled.node_budgets(base.nodes).into_iter().map(f64::from);
        let energies = scaled.node_energies(base.nodes);
        allowed.push(budgets.zip(energies).map(|(b, e)| b * e).sum());
        let constrained = AlgorithmSpec::SkipTrainConstrained(schedule);
        configs.push(grid_run(&base, AlgorithmSpec::DPsgd, &base.energy));
        configs.push(grid_run(&base, AlgorithmSpec::Greedy, &scaled));
        configs.push(grid_run(&base, constrained, &scaled));
    }
    (configs, allowed)
}

/// Figure 4's schedule, Γ = (4, 4).
pub const SAWTOOTH: Schedule = Schedule {
    gamma_train: 4,
    gamma_sync: 4,
    phase_offset: 0,
};

/// Figure 4's run: CIFAR-10 SkipTrain at [`SAWTOOTH`], evaluated every 2
/// rounds as the paper does there.
pub fn sawtooth_config(args: &HarnessArgs) -> ExperimentConfig {
    let mut cfg = cifar_config(args.scale, args.seed);
    args.apply(&mut cfg);
    cfg.name = "fig4-sawtooth".into();
    (cfg.algorithm, cfg.eval_every) = (AlgorithmSpec::SkipTrain(SAWTOOTH), 2);
    cfg
}

/// Figure 4's sawtooth in numbers: mean `(accuracy, std)` over the
/// converged second half of the curve, at the points that follow a sync
/// round, then at those that follow a train round.
pub fn sawtooth_split(result: &ExperimentResult) -> [(f32, f32); 2] {
    let points = &result.test_curve[result.test_curve.len() / 2..];
    let follows_train = |p: &AccuracyPoint| SAWTOOTH.is_train_round(p.round.saturating_sub(1));
    [false, true].map(|after_train| {
        let side = points.iter().filter(|p| follows_train(p) == after_train);
        let (n, acc, std) = side.fold((0usize, 0.0f32, 0.0f32), |(n, a, s), p| {
            (n + 1, a + p.mean_accuracy, s + p.std_accuracy)
        });
        let n = n.max(1) as f32;
        (acc / n, std / n)
    })
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        let args = HarnessArgs::parse_from(Vec::<String>::new());
        assert_eq!(args.seed, 42);
        assert_eq!(args.scale, Scale::Quick);
        assert!(args.nodes.is_none());
    }

    #[test]
    fn parse_all_flags() {
        let args = HarnessArgs::parse_from(
            [
                "--scale",
                "medium",
                "--seed",
                "7",
                "--nodes",
                "16",
                "--rounds",
                "99",
                "--json",
                "/tmp/x.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(args.scale, Scale::Medium);
        assert_eq!(args.seed, 7);
        assert_eq!(args.nodes, Some(16));
        assert_eq!(args.rounds, Some(99));
        assert!(args.json.is_some());
    }

    #[test]
    fn overrides_apply() {
        let mut cfg = skiptrain_core::presets::cifar_config(Scale::Quick, 1);
        let args = HarnessArgs {
            nodes: Some(12),
            rounds: Some(20),
            seed: 9,
            ..HarnessArgs::default()
        };
        args.apply(&mut cfg);
        assert_eq!(cfg.nodes, 12);
        assert_eq!(cfg.rounds, 20);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn a_failed_cell_ends_in_exit_code_1() {
        use skiptrain_core::{CellFailure, FailureCause};
        let clean = CampaignReport {
            results: Vec::new(),
            failures: Vec::new(),
            restored: 0,
        };
        assert_eq!(report_exit_code(&clean), 0);
        let failed = CampaignReport {
            results: vec![None],
            failures: vec![CellFailure {
                index: 0,
                name: "doomed".into(),
                config_digest: 0,
                attempts: 1,
                cause: FailureCause::Panic("injected".into()),
            }],
            restored: 0,
        };
        assert_eq!(report_exit_code(&failed), 1);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines.iter().all(|l| l.len() == lines[0].len()),
            "rows not aligned:\n{t}"
        );
    }
}
