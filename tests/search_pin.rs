//! Pins the CDCL(T) search: the exact work counters of a few small
//! Full-suite rows under the default ZPRE strategy, under the VSIDS-only
//! baseline, under the guard-order and fixed-polarity guides, and through
//! the incremental bound sweep.
//!
//! ZPRE's guide makes almost every single-bound decision, so the first
//! table barely exercises the VSIDS order heap. The baseline rows hand
//! every decision to VSIDS, and the sweep row (a loop task, as in the
//! `sweep-deep` benchmark workload) leaves about a third of its decisions
//! to it, with learnt clauses and activities carried across frames.
//!
//! Hot-path rewrites of the solver or the order theory (data-structure
//! swaps, buffer reuse) must leave the search itself untouched: every
//! decision, propagation, conflict, theory lemma and EOG check happens in
//! the same order, so every counter below stays equal to the last digit. A
//! change that alters the search on purpose (a new heuristic, a different
//! propagation order) re-records the table and says so.
//!
//! The rows whose worker threads are identical (`counter-3x3-locked`,
//! `twolocks-3x2`, `openclose-3-locked`, and the lock-free
//! `ring-broken-4`, whose pairs are anchored on their first writes) run
//! with the symmetry-breaking clauses that pruning adds; the other rows
//! have no symmetric threads.

use zpre::prelude::*;
use zpre::try_verify_sweep_full;
use zpre_sat::Stats;
use zpre_workloads::{suite, Scale, Task};

/// Counter names, in the order of the pinned arrays.
const NAMES: [&str; 10] = [
    "decisions",
    "propagations",
    "conflicts",
    "theory_conflicts",
    "theory_propagations",
    "learnt_clauses",
    "eog_checks",
    "eog_accepted_o1",
    "eog_visited",
    "eog_promoted",
];

/// `(task, memory model, verdict, counters)`, counters in [`NAMES`] order.
const PINNED: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[
    (
        "pthread/counter-3x3-locked",
        MemoryModel::Sc,
        Verdict::Safe,
        [2441, 77615, 470, 204, 65, 469, 14244, 11713, 11396, 6265],
    ),
    (
        "pthread/counter-3x3-locked",
        MemoryModel::Tso,
        Verdict::Safe,
        [2598, 81077, 484, 215, 112, 483, 14988, 12350, 12290, 6831],
    ),
    (
        "pthread/twolocks-3x2",
        MemoryModel::Sc,
        Verdict::Safe,
        [2043, 49338, 323, 183, 41, 322, 7341, 5661, 8026, 4837],
    ),
    (
        "stress/s203-4x14",
        MemoryModel::Sc,
        Verdict::Unsafe,
        [6656, 19097, 158, 123, 149, 158, 8646, 7178, 6741, 2698],
    ),
    (
        "divine/ring-broken-4",
        MemoryModel::Pso,
        Verdict::Unsafe,
        [5331, 48906, 241, 143, 68, 241, 3773, 2369, 5831, 3196],
    ),
];

/// Rows under [`Strategy::Baseline`], where VSIDS makes every decision.
const PINNED_BASELINE: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[
    (
        "driver-races/openclose-3-locked",
        MemoryModel::Pso,
        Verdict::Safe,
        [871, 12563, 146, 87, 13, 145, 1786, 1239, 2136, 1264],
    ),
    (
        "divine/ring-broken-4",
        MemoryModel::Sc,
        Verdict::Unsafe,
        [6895, 62502, 317, 221, 233, 317, 3986, 2850, 5005, 2831],
    ),
];

/// Rows under [`Strategy::BranchCond`], whose guide ranks event-guard
/// variables instead of interference variables.
const PINNED_BRANCH_COND: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[(
    "pthread/twolocks-3x2",
    MemoryModel::Sc,
    Verdict::Safe,
    [2893, 86375, 710, 233, 61, 709, 16581, 13009, 15411, 8828],
)];

/// Rows under [`Strategy::ZpreFixedTrue`], whose guide decides every
/// interference variable true instead of with a drawn or saved polarity.
const PINNED_FIXED_TRUE: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[(
    "divine/ring-broken-4",
    MemoryModel::Pso,
    Verdict::Unsafe,
    [49, 1267, 5, 4, 2, 5, 434, 186, 303, 273],
)];

/// Horizon of the pinned sweep row (the `sweep-deep` workload's).
const SWEEP_HORIZON: u32 = 8;

/// A [`try_verify_sweep_full`] row under ZPRE over bounds
/// `1..=SWEEP_HORIZON`; its counters are cumulative over every frame.
const PINNED_SWEEP: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[(
    "lit/peterson-w3",
    MemoryModel::Tso,
    Verdict::Unsafe,
    [3886, 15027, 44, 42, 38, 44, 2274, 1391, 1580, 1103],
)];

/// A [`try_verify_sweep_full`] row under [`Strategy::BranchCond`], with the
/// guard order installed once for every frame.
const PINNED_SWEEP_BRANCH_COND: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[(
    "lit/peterson-w3",
    MemoryModel::Tso,
    Verdict::Unsafe,
    [15092, 35806, 163, 107, 12, 163, 4239, 2878, 5026, 3151],
)];

fn counters(s: &Stats) -> [u64; 10] {
    [
        s.decisions,
        s.propagations,
        s.conflicts,
        s.theory_conflicts,
        s.theory_propagations,
        s.learnt_clauses,
        s.eog_checks,
        s.eog_accepted_o1,
        s.eog_visited,
        s.eog_promoted,
    ]
}

fn task<'a>(tasks: &'a [Task], name: &str) -> &'a Task {
    tasks
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the Full suite"))
}

/// Asserts that the row's verdict and every counter match the pin.
fn assert_pinned(
    name: &str,
    mm: MemoryModel,
    verdict: Verdict,
    pinned: [u64; 10],
    got: Verdict,
    stats: &Stats,
) {
    assert_eq!(got, verdict, "{name} {mm}");
    let got = counters(stats);
    let drift: Vec<String> = NAMES
        .iter()
        .zip(pinned.iter().zip(got.iter()))
        .filter(|(_, (p, g))| p != g)
        .map(|(n, (p, g))| format!("{n}: pinned {p}, got {g}"))
        .collect();
    assert!(
        drift.is_empty(),
        "{name} {mm}: {} (all: {got:?})",
        drift.join("; ")
    );
}

fn check_verify_rows(strategy: Strategy, rows: &[(&str, MemoryModel, Verdict, [u64; 10])]) {
    let tasks = suite(Scale::Full);
    for &(name, mm, verdict, pinned) in rows {
        let task = task(&tasks, name);
        let opts = VerifyOptions {
            unroll_bound: task.unroll_bound,
            ..VerifyOptions::new(mm, strategy)
        };
        let out = verify(&task.program, &opts);
        assert_pinned(name, mm, verdict, pinned, out.verdict, &out.stats);
    }
}

#[test]
fn search_counters_are_pinned() {
    check_verify_rows(Strategy::Zpre, PINNED);
}

#[test]
fn vsids_search_counters_are_pinned() {
    check_verify_rows(Strategy::Baseline, PINNED_BASELINE);
}

#[test]
fn branch_cond_search_counters_are_pinned() {
    check_verify_rows(Strategy::BranchCond, PINNED_BRANCH_COND);
}

#[test]
fn fixed_polarity_search_counters_are_pinned() {
    check_verify_rows(Strategy::ZpreFixedTrue, PINNED_FIXED_TRUE);
}

fn check_sweep_rows(strategy: Strategy, rows: &[(&str, MemoryModel, Verdict, [u64; 10])]) {
    let tasks = suite(Scale::Full);
    for &(name, mm, verdict, pinned) in rows {
        let task = task(&tasks, name);
        let opts = VerifyOptions {
            unroll_bound: task.unroll_bound,
            max_bound: SWEEP_HORIZON,
            ..VerifyOptions::new(mm, strategy)
        };
        let out = try_verify_sweep_full(&task.program, &opts).expect("sweep runs");
        assert_pinned(name, mm, verdict, pinned, out.verdict, &out.stats);
    }
}

#[test]
fn sweep_search_counters_are_pinned() {
    check_sweep_rows(Strategy::Zpre, PINNED_SWEEP);
}

#[test]
fn branch_cond_sweep_search_counters_are_pinned() {
    check_sweep_rows(Strategy::BranchCond, PINNED_SWEEP_BRANCH_COND);
}
