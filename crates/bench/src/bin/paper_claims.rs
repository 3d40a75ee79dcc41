//! The paper's claims, checked in one place: every number `paper.rs`
//! transcribes beside the one this repository computes, one typed
//! [`Claim`] per row.
//! - *Exact* rows are arithmetic at the paper's scale (256 nodes, Table 1's
//!   rounds) from `EnergySpec::node_energies` and the schedule: Figure 3's
//!   energy grid, Table 3's SkipTrain ÷ D-PSGD ratios and energies, the §1
//!   claim, Table 2, the tuned Γ per degree, and each Figure 5 run's ledger
//!   against its analytic Wh. A miss exits 1.
//! - *Ordering* rows are Table 3's, Table 4's and Figure 4's comparisons at
//!   `--seed` and two seeds derived from it, each with the number of seeds
//!   it holds at. A miss is listed and never gates.
//! - *Informational* rows set accuracies and Table 4's budgets side by side.
//!
//! `--json` writes the rows. A failed cell exits 1, a bad flag or config 2.

use serde_json::{json, Value};
use skiptrain_bench::paper::{
    CLAIM_COMM_WH, CLAIM_MIN_RATIO, CLAIM_TRAINING_KWH, DATASETS, DEGREES, ENERGY_BAND,
    FIG3_ENERGY_WH, FIG3_VAL_ACC, TABLE2, TABLE3_ACCURACY_PCT, TABLE3_ALGORITHMS, TABLE3_ENERGY_WH,
    TABLE4_ACCURACY_PCT, TABLE4_ALGORITHMS, TABLE4_BUDGET_WH, TABLE4_SUSPECTED_MISPRINT,
};
use skiptrain_bench::{
    constrained_grid, dataset_presets, dpsgd_at_wh, render_table, run_cells, sawtooth_config,
    sawtooth_split, unconstrained_grid, HarnessArgs,
};
use skiptrain_core::presets::Scale;
use skiptrain_core::{AlgorithmSpec, ExperimentResult, Schedule};
use skiptrain_energy::comm::CommEnergyModel;
use skiptrain_energy::trace::table2;
use skiptrain_linalg::rng::derive_seed;

/// How a [`Claim`] is judged.
#[derive(Clone, Copy)]
enum Class {
    /// Arithmetic the paper reports: `pass` iff the measured number is
    /// within `band` (in the row's unit) of the paper's. A miss fails the
    /// run.
    Exact { band: f64, pass: bool },
    /// A comparison the paper reports, holding at `passes` of `seeds`.
    Ordering { passes: usize, seeds: usize },
    /// Side by side, without a verdict.
    Informational,
}

/// One row of the scoreboard; `paper` is `None` where the paper reports
/// only a shape.
struct Claim {
    claim: String,
    source: &'static str,
    paper: Option<f64>,
    measured: f64,
    class: Class,
}

impl Claim {
    /// `Some(pass)` for an exact row.
    fn pass(&self) -> Option<bool> {
        match self.class {
            Class::Exact { pass, .. } => Some(pass),
            _ => None,
        }
    }

    /// The row as printed: claim, source, paper, measured, verdict.
    fn cells(&self) -> Vec<String> {
        let verdict = match self.class {
            Class::Exact { pass: true, .. } => "pass".into(),
            Class::Exact { band, .. } => format!("MISS (band {})", num(band)),
            Class::Ordering { passes, seeds } => format!("{passes}/{seeds} seeds"),
            Class::Informational => "-".into(),
        };
        let (paper, measured) = (self.paper.map_or("-".into(), num), num(self.measured));
        let claim = self.claim.clone();
        vec![claim, self.source.into(), paper, measured, verdict]
    }

    fn to_json(&self) -> Value {
        let class = match self.class {
            Class::Exact { band, pass } => json!({"kind": "exact", "band": band, "pass": pass}),
            Class::Ordering { passes, seeds } => {
                json!({"kind": "ordering", "passes": passes, "seeds": seeds})
            }
            Class::Informational => json!({"kind": "informational"}),
        };
        json!({"claim": self.claim, "source": self.source, "paper": self.paper,
               "measured": self.measured, "class": class})
    }
}

/// The rows in order, each credited to the current `source`.
#[derive(Default)]
struct Board {
    rows: Vec<Claim>,
    source: &'static str,
}

impl Board {
    fn push(&mut self, claim: String, paper: Option<f64>, measured: f64, class: Class) {
        let source = self.source;
        self.rows.push(Claim {
            claim,
            source,
            paper,
            measured,
            class,
        });
    }

    fn exact(&mut self, claim: String, paper: f64, measured: f64, band: f64) {
        let pass = (measured - paper).abs() <= band;
        self.push(claim, Some(paper), measured, Class::Exact { band, pass });
    }

    /// An ordering row from one margin per seed, measuring their mean; the
    /// paper's order holds at a seed where `ok(margin)`.
    fn ordering(&mut self, claim: String, paper: Option<f64>, m: Vec<f64>, ok: fn(f64) -> bool) {
        let (passes, seeds) = (m.iter().filter(|&&m| ok(m)).count(), m.len());
        let mean = m.iter().sum::<f64>() / seeds as f64;
        self.push(claim, paper, mean, Class::Ordering { passes, seeds });
    }

    fn info(&mut self, claim: String, paper: f64, measured: f64) {
        self.push(claim, Some(paper), measured, Class::Informational);
    }
}

/// `x` to four decimals, trailing zeros dropped.
fn num(x: f64) -> String {
    let s = format!("{x:.4}");
    s.trim_end_matches('0').trim_end_matches('.').into()
}

/// Per-round training Wh of the paper's 256-node fleet on each of
/// [`DATASETS`]' workloads.
fn fleet_round_wh() -> [f64; 2] {
    dataset_presets(Scale::Paper, 0).map(|c| c.energy.node_energies(c.nodes).iter().sum())
}

/// Every arithmetic claim at the paper's scale, given each workload's
/// per-round fleet Wh ([`fleet_round_wh`] at this library).
fn exact_claims(b: &mut Board, fleet: [f64; 2]) {
    let paper = dataset_presets(Scale::Paper, 0);
    let cifar = &paper[0];
    b.source = "Figure 3";
    for (gs, grid) in (1..).zip(&FIG3_ENERGY_WH) {
        for (gt, &wh) in (1..).zip(grid) {
            let n = Schedule::new(gt, gs).count_train_rounds(cifar.rounds) as f64;
            let claim = format!("Γtrain={gt} Γsync={gs} training Wh");
            b.exact(claim, wh, n * fleet[0], 0.5);
        }
    }
    b.source = "Table 3";
    for (d, dataset) in DATASETS.into_iter().enumerate() {
        let ([skip, dpsgd], rounds) = (TABLE3_ENERGY_WH[d], paper[d].rounds);
        for (k, degree) in DEGREES.into_iter().enumerate() {
            let tuned = Schedule::tuned_for_degree(degree).count_train_rounds(rounds);
            let cell = format!("{dataset} {degree}-regular");
            let (ratio, measured) = (skip[k] / dpsgd[k], tuned as f64 / rounds as f64);
            let claim = format!("SkipTrain ÷ D-PSGD training Wh to the printed cent, {cell}");
            b.exact(claim, ratio, measured, 0.01 / dpsgd[k]);
            for (a, n) in [tuned, rounds].into_iter().enumerate() {
                let (wh, algorithm) = (TABLE3_ENERGY_WH[d][a][k], TABLE3_ALGORITHMS[a]);
                let claim = format!("{algorithm} training Wh ±{ENERGY_BAND:e} relative, {cell}");
                b.exact(claim, wh, n as f64 * fleet[d], ENERGY_BAND * wh);
            }
        }
    }
    b.source = "§1";
    let train_wh = cifar.rounds as f64 * fleet[0];
    let params = cifar.energy.workload.model_params;
    let comm = CommEnergyModel::paper_fit().round_energy_wh(cifar.nodes, DEGREES[0], params);
    let comm_wh = cifar.rounds as f64 * comm;
    let claim = "D-PSGD training kWh, 256 nodes × 1000 rounds, 6-regular".into();
    b.exact(claim, CLAIM_TRAINING_KWH, train_wh / 1000.0, 0.005);
    let claim = "communication + aggregation Wh, same run".into();
    b.exact(claim, CLAIM_COMM_WH, comm_wh, 0.05);
    let ratio = train_wh / comm_wh;
    let pass = ratio > CLAIM_MIN_RATIO;
    let class = Class::Exact { band: 0.0, pass };
    let claim = "training ÷ communication, above".into();
    b.push(claim, Some(CLAIM_MIN_RATIO), ratio, class);
    b.source = "Table 2";
    for (row, &(device, cm, fm, cr, fr)) in table2().iter().zip(&TABLE2) {
        let cells = [
            ("CIFAR-10 mWh/round ±3 %", cm, row.cifar_mwh, 0.03 * cm),
            ("FEMNIST mWh/round ±5 %", fm, row.femnist_mwh, 0.05 * fm),
            ("CIFAR-10 budget", cr as f64, row.cifar_rounds as f64, 0.0),
            ("FEMNIST budget", fr as f64, row.femnist_rounds as f64, 0.0),
        ];
        for (what, paper, measured, band) in cells {
            b.exact(format!("{device} {what}"), paper, measured, band);
        }
    }
    b.source = "Figure 3 / §4.3";
    for (degree, grid) in DEGREES.into_iter().zip(&FIG3_VAL_ACC) {
        let s = Schedule::tuned_for_degree(degree);
        let (gt, gs) = (s.gamma_train, s.gamma_sync);
        let best = grid.iter().flatten().fold(f64::MIN, |m, &v| m.max(v));
        let claim = format!("tuned Γ=({gt},{gs}) is a best {degree}-regular val %");
        b.exact(claim, best, grid[gs - 1][gt - 1], 0.0);
    }
}

/// One seed's runs: Figure 5's results; per grid cell the accuracies (%)
/// of Table 3 in [`TABLE3_ALGORITHMS`] order and of Table 4 in
/// [`TABLE4_ALGORITHMS`] order, D-PSGD's read at the allowed Wh; and
/// Figure 4's after-train minus after-sync std (pp).
struct Runs {
    unconstrained: Vec<ExperimentResult>,
    table3: Vec<[f64; 2]>,
    table4: Vec<[f64; 3]>,
    std_gap: f64,
}

fn run(args: &HarnessArgs) -> Runs {
    let (constrained, allowed_wh) = constrained_grid(args);
    let mut configs = unconstrained_grid(args);
    let split = configs.len();
    configs.extend(constrained);
    configs.push(sawtooth_config(args));
    let mut results = run_cells(configs);
    let sawtooth = results.pop().expect("the sawtooth cell has a result");
    let [(_, after_sync), (_, after_train)] = sawtooth_split(&sawtooth);
    let constrained = results.split_off(split);
    let pct = |a: f32| f64::from(a) * 100.0;
    let acc = |r: &ExperimentResult| pct(r.final_test.mean_accuracy);
    let table3 = results.chunks(2).map(|p| [acc(&p[1]), acc(&p[0])]);
    let table4 = constrained.chunks(3).zip(allowed_wh).map(|(g, wh)| {
        let at_allowed = pct(dpsgd_at_wh(&g[0], wh).1);
        [acc(&g[2]), acc(&g[1]), at_allowed]
    });
    let (table3, table4) = (table3.collect(), table4.collect());
    let std_gap = pct(after_train - after_sync);
    Runs {
        unconstrained: results,
        table3,
        table4,
        std_gap,
    }
}

/// Each Figure 5 run's ledger against its analytic training Wh (the
/// schedule's training rounds × the fleet's per-round Wh), then the
/// ordering and informational rows of every seed's runs.
fn run_claims(b: &mut Board, args: &HarnessArgs, runs: &[Runs]) {
    b.source = "simulator";
    for (cfg, r) in unconstrained_grid(args).iter().zip(&runs[0].unconstrained) {
        let schedule = match cfg.algorithm {
            AlgorithmSpec::SkipTrain(s) => s,
            _ => Schedule::dpsgd(),
        };
        let per_round: f64 = cfg.energy.node_energies(cfg.nodes).iter().sum();
        let analytic = schedule.count_train_rounds(cfg.rounds) as f64 * per_round;
        let claim = format!("ledger ≡ analytic training Wh to 1e-9 relative, {}", r.name);
        b.exact(claim, analytic, r.total_training_wh, 1e-9 * analytic);
    }
    let paper_scale = HarnessArgs::parse_from(["--scale", "paper"].map(String::from));
    let (_, paper_allowed) = constrained_grid(&paper_scale);
    let gain = |[skip, dpsgd]: [f64; 2]| skip - dpsgd;
    let gap = |[skip, greedy, dpsgd]: [f64; 3]| (skip - greedy).min(greedy - dpsgd);
    for (c, allowed) in paper_allowed.into_iter().enumerate() {
        let (d, k) = (c / 3, c % 3);
        let cell = format!("{} {}-regular", DATASETS[d], DEGREES[k]);
        b.source = "Table 3";
        let paper = gain(TABLE3_ACCURACY_PCT[d].map(|row| row[k]));
        let margins = runs.iter().map(|r| gain(r.table3[c])).collect();
        let claim = format!("SkipTrain ≥ D-PSGD accuracy (pp), {cell}");
        b.ordering(claim, Some(paper), margins, |m| m >= 0.0);
        for (a, acc) in runs[0].table3[c].into_iter().enumerate() {
            let claim = format!("{} accuracy %, {cell}", TABLE3_ALGORITHMS[a]);
            b.info(claim, TABLE3_ACCURACY_PCT[d][a][k], acc);
        }
        b.source = "Table 4";
        let paper = gap(TABLE4_ACCURACY_PCT[d].map(|row| row[k]));
        let margins = runs.iter().map(|r| gap(r.table4[c])).collect();
        let claim = format!("SkipTrain-c > Greedy > D-PSGD at allowed Wh (min gap, pp), {cell}");
        b.ordering(claim, Some(paper), margins, |m| m > 0.0);
        for (a, acc) in runs[0].table4[c].into_iter().enumerate() {
            let algorithm = TABLE4_ALGORITHMS[a];
            let misprint = [d, a, k] == TABLE4_SUSPECTED_MISPRINT;
            let note = if misprint { " (misprint?)" } else { "" };
            let claim = format!("{algorithm} accuracy %, {cell}");
            b.info(claim, TABLE4_ACCURACY_PCT[d][a][k], acc);
            let claim = format!("{algorithm} budget Wh vs 256-node allowed, {cell}{note}");
            b.info(claim, TABLE4_BUDGET_WH[d][a][k], allowed);
        }
    }
    b.source = "Figure 4";
    let margins = runs.iter().map(|r| r.std_gap).collect();
    let claim = "after-train std > after-sync std (pp), CIFAR-10 Γ=(4,4)".into();
    b.ordering(claim, None, margins, |m| m > 0.0);
}

fn main() {
    let args = HarnessArgs::parse();
    let s = args.seed;
    let seeds = [s, derive_seed(s, 1), derive_seed(s, 2)];
    let runs = seeds.map(|seed| {
        let mut at_seed = args.clone();
        at_seed.seed = seed;
        run(&at_seed)
    });
    let mut b = Board::default();
    exact_claims(&mut b, fleet_round_wh());
    run_claims(&mut b, &args, &runs);

    let table: Vec<Vec<String>> = b.rows.iter().map(Claim::cells).collect();
    let headers = ["claim", "source", "paper", "measured", "verdict"];
    println!("{}", render_table(&headers, &table));
    let exact: Vec<bool> = b.rows.iter().filter_map(Claim::pass).collect();
    let missed = exact.iter().filter(|&&pass| !pass).count();
    println!("exact rows: {} pass, {missed} miss", exact.len() - missed);
    for miss in b.rows.iter().filter(|r| r.pass() == Some(false)) {
        eprintln!("MISS {} ({})", miss.claim, miss.source);
    }
    let rows: Vec<Value> = b.rows.iter().map(Claim::to_json).collect();
    let seeds = seeds.to_vec();
    args.maybe_write_json(&json!({"experiment": "paper_claims", "seeds": seeds, "rows": rows}));
    std::process::exit(i32::from(missed > 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_rows(fleet: [f64; 2]) -> Vec<Claim> {
        let mut b = Board::default();
        exact_claims(&mut b, fleet);
        b.rows
    }

    fn misses(rows: &[Claim]) -> Vec<&Claim> {
        rows.iter().filter(|r| r.pass() == Some(false)).collect()
    }

    #[test]
    fn every_exact_claim_passes_at_this_library() {
        let rows = exact_rows(fleet_round_wh());
        // Figure 3, Table 3 ratios and energies, §1, Table 2, tuned Γ
        assert_eq!(rows.len(), 16 + 6 + 12 + 3 + 16 + 3);
        assert!(rows.iter().all(|r| r.pass().is_some()));
        let missed: Vec<&str> = misses(&rows).iter().map(|r| r.claim.as_str()).collect();
        assert!(missed.is_empty(), "exact claims missed: {missed:?}");
    }

    #[test]
    fn the_energy_offset_is_one_factor_shared_by_both_workloads() {
        let paper = dataset_presets(Scale::Paper, 0);
        let offsets: Vec<f64> = (0..2)
            .map(|d| fleet_round_wh()[d] * paper[d].rounds as f64 / TABLE3_ENERGY_WH[d][1][0])
            .collect();
        assert!((offsets[0] - offsets[1]).abs() < 1e-6, "{offsets:?}");
        assert!(
            offsets.iter().all(|o| (o - 1.000_204).abs() < 1e-6),
            "{offsets:?}"
        );
    }

    #[test]
    fn a_fleet_wh_off_by_a_tenth_of_a_percent_fails_the_gate() {
        let rows = exact_rows(fleet_round_wh().map(|wh| wh * 1.001));
        let missed = misses(&rows);
        assert!(missed
            .iter()
            .any(|r| r.source == "Figure 3" && r.claim.contains("training Wh")));
        assert!(missed
            .iter()
            .any(|r| r.source == "Table 3" && r.claim.contains("relative")));
    }
}
