//! # zpre-bench — experiment runner and aggregation
//!
//! Runs the workload suite through the verifier under every (memory model,
//! strategy) combination and aggregates the measurements into the paper's
//! tables and figures. The `harness` binary (`src/bin/harness.rs`)
//! regenerates each table/figure; the `ab-bench` binary (`src/bin/ab.rs`)
//! runs one two-sided comparison through the [`ab`] loop. Bench telemetry
//! speaks the trace vocabulary of `zpre-obs`: a harness row's telemetry is
//! its recorder snapshot, written as that snapshot's
//! `zpre_obs::analyze::TraceStats`, and an A/B side's work is the
//! recorder's `Counters`.

#![warn(missing_docs)]

pub mod ab;
pub mod aggregate;
pub mod ascii;
pub mod families;
pub mod runner;

pub use aggregate::*;
pub use families::{contended_family, loopy_family};
pub use runner::{
    csv_row, json_row, run_one, run_one_portfolio, run_suite_portfolio_streaming,
    run_suite_streaming, to_csv, to_json, RunConfig, TaskResult, CSV_HEADER,
};
