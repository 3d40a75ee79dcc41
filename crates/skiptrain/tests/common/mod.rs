//! The two ways to run one config, unwrapped for tests that only read the
//! result.
#![allow(dead_code)] // each test file uses the subset it needs

use skiptrain::prelude::*;

/// One config on its own data: `Experiment::from_config(cfg)?.run()`.
pub fn run(cfg: &ExperimentConfig) -> ExperimentResult {
    Experiment::from_config(cfg.clone())
        .expect("valid config")
        .run()
        .expect("run completes")
}

/// One config on a shared bundle: `run_with_observers`, no observers.
pub fn run_shared(cfg: &ExperimentConfig, data: &DataBundle) -> ExperimentResult {
    run_with_observers(cfg, data, &mut []).expect("valid config and bundle")
}
