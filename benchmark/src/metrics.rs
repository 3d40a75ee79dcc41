//! The metrics the benchmark emits, by name and unit, and the result line
//! the driver reads. `BENCHMARK.json` declares the same names (a unit test
//! holds the two lists equal); direction and regression bound live there.

use serde_json::Value;

/// `(name, unit)` of every end-to-end metric, emitted with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rounds_per_s_t1", "1/s"),
    ("sim_accuracy_pct", "%"),
    ("sim_energy_wh", "Wh"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, emitted with `--trace 1`.
/// Layer = crate (or module) name; `_t1`/`_tmax` name the thread budget.
pub const PER_LAYER: &[(&str, &str)] = &[
    // kernels, replayed at this workload's shapes (budget 1)
    ("linalg.gemm_gflops", "GFLOP/s"),
    ("linalg.wsum_gbps", "GB/s"),
    ("linalg.topk_mbps", "MB/s"),
    ("linalg.quant_mbps", "MB/s"),
    ("nn.sgd_step_us", "us"),
    ("nn.eval_forward_us", "us"),
    ("nn.flops_per_round", "flop"),
    // share / schedule / energy layers
    ("engine.codec_roundtrip_us", "us"),
    ("engine.event_begin_round_us", "us"),
    ("topology.mixing_for_round_us", "us"),
    ("topology.mixing_cache_hit_ratio", "ratio"),
    ("topology.graph_build_ms", "ms"),
    ("energy.battery_step_us", "us"),
    ("energy.ledger_ns_per_msg", "ns"),
    ("energy.brownouts", "count"),
    ("data.build_ms", "ms"),
    // parallel runtime
    ("rounds_per_s_tmax", "1/s"),
    ("rayon.dispatch_us_tmax", "us"),
    ("rayon.par_speedup", "ratio"),
    ("host.cpu_util_tmax", "ratio"),
    // whole rounds on the workload's fleet
    ("engine.round_train_ms_t1", "ms"),
    ("engine.round_train_ms_tmax", "ms"),
    ("engine.round_sync_ms_t1", "ms"),
    ("engine.round_sync_ms_tmax", "ms"),
    ("engine.round_ms_p50_t1", "ms"),
    ("engine.round_ms_p50_tmax", "ms"),
    ("engine.round_ms_p95_t1", "ms"),
    ("engine.round_ms_p95_tmax", "ms"),
    ("engine.alloc_bytes_per_round_t1", "B"),
    ("engine.alloc_bytes_per_round_tmax", "B"),
    ("engine.train_share_pct", "%"),
    ("engine.train_round_explained_ratio", "ratio"),
    ("engine.evaluate_ms", "ms"),
    ("engine.wire_bytes_per_round", "B"),
    ("engine.msgs_per_round", "count"),
    ("engine.train_node_rounds", "count"),
    ("engine.late_msgs", "count"),
    ("engine.corrupted_msgs", "count"),
    // run / campaign driver
    ("core.policy_decide_us", "us"),
    ("core.run_self_ms", "ms"),
    ("core.cell_s_p50", "s"),
    ("core.cell_imbalance", "ratio"),
    ("core.campaign_idle_pct", "%"),
    ("core.journal_bytes_per_cell", "B"),
    ("core.resume_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Metric values collected during a run, by name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` under `name` (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line: exactly the `declared`
    /// metrics, each `{"value", "unit"}`. An undeclared, missing or
    /// non-finite metric is an error — the driver would refuse the line.
    pub fn to_json(&self, declared: &[(&str, &str)]) -> Result<Value, String> {
        for (name, _) in &self.0 {
            if !declared.iter().any(|(d, _)| d == name) {
                return Err(format!("metric '{name}' is not declared"));
            }
        }
        let mut entries = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric '{name}' is not finite: {value}"));
            }
            entries.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::String(unit.into())),
                ]),
            ));
        }
        Ok(Value::Object(entries))
    }
}

/// What one run of one workload reports, whichever metric family it took.
pub struct Report {
    /// The measured metrics.
    pub metrics: Metrics,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Report {
    /// The report of a run that could not even set up.
    pub fn aborted(failures: Vec<String>) -> Self {
        Self {
            metrics: Metrics::default(),
            attempted: 1,
            failed: 1,
            failures,
        }
    }
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics),
    ]);
    serde_json::to_string(&line).unwrap_or_else(|e| panic!("result line serializes: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
    }

    fn declared(section: &Value) -> Vec<(String, String)> {
        section
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(defs: &[(&str, &str)]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "bad metric name '{name}'");
            assert!(unit_ok(unit), "bad unit '{unit}' on '{name}'");
            assert!(seen.insert(*name), "metric '{name}' is declared twice");
        }
        for name in workloads::NAMES {
            assert!(name_ok(name), "bad workload name '{name}'");
            assert!(seen.insert(name), "'{name}' is used twice");
        }
    }

    #[test]
    fn report_lists_exactly_what_benchmark_json_declares() {
        let spec = benchmark_json();
        assert_eq!(
            declared(spec.get("end_to_end").expect("end_to_end")),
            owned(END_TO_END)
        );
        assert_eq!(
            declared(spec.get("per_layer").expect("per_layer")),
            owned(PER_LAYER)
        );
        let workloads_declared: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name").into())
            .collect();
        assert_eq!(workloads_declared, workloads::NAMES);
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );

        // and the emitted line carries exactly those metrics
        for defs in [END_TO_END, PER_LAYER] {
            let mut metrics = Metrics::default();
            for (i, (name, _)) in defs.iter().enumerate() {
                metrics.set(name, i as f64 + 0.5);
            }
            let line = result_line(true, 3, 0, metrics.to_json(defs).expect("complete"));
            let parsed = serde_json::parse_value(&line).expect("the result line is JSON");
            let keys: Vec<&str> = parsed
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let emitted: Vec<(String, String)> = parsed
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some());
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, owned(defs));
        }
    }

    #[test]
    fn incomplete_or_undeclared_metrics_are_refused() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.1);
        assert!(metrics
            .to_json(END_TO_END)
            .unwrap_err()
            .contains("rounds_per_s_t1"));
        metrics.set("surprise", 1.0);
        assert!(metrics
            .to_json(END_TO_END)
            .unwrap_err()
            .contains("surprise"));
        let mut nan = Metrics::default();
        for (name, _) in END_TO_END {
            nan.set(name, f64::NAN);
        }
        assert!(nan.to_json(END_TO_END).unwrap_err().contains("not finite"));
    }
}
