//! # zpre-bench — experiment runner and aggregation
//!
//! Runs the workload suite through the verifier under every (memory model,
//! strategy) combination and aggregates the measurements into the paper's
//! tables and figures. The `harness` binary (`src/bin/harness.rs`)
//! regenerates each table/figure; the `ab-bench` binary (`src/bin/ab.rs`)
//! runs one two-sided comparison through the [`ab`] loop; the Criterion
//! benches under `benches/` provide statistically sampled timings on
//! representative subsets.

#![warn(missing_docs)]

pub mod ab;
pub mod aggregate;
pub mod ascii;
pub mod families;
pub mod runner;

pub use aggregate::*;
pub use families::{contended_family, loopy_family};
pub use runner::{
    bench_options, csv_row, json_row, run_one, run_one_portfolio, run_suite_portfolio_streaming,
    run_suite_streaming, telemetry_json, to_csv, to_json, RowTelemetry, RunConfig, TaskResult,
    CSV_HEADER,
};
