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
        [
            2906, 307772, 1373, 308, 316, 1372, 54956, 46142, 36900, 18961,
        ],
    ),
    (
        "pthread/counter-3x3-locked",
        MemoryModel::Tso,
        Verdict::Safe,
        [
            3033, 307573, 1409, 337, 313, 1408, 55114, 45996, 39614, 20629,
        ],
    ),
    (
        "pthread/twolocks-3x2",
        MemoryModel::Sc,
        Verdict::Safe,
        [1646, 72110, 501, 251, 145, 500, 11756, 9041, 12515, 6668],
    ),
    (
        "stress/s203-4x14",
        MemoryModel::Sc,
        Verdict::Unsafe,
        [
            7839, 89246, 1058, 789, 699, 1058, 29380, 22507, 33287, 16021,
        ],
    ),
    (
        "divine/ring-broken-4",
        MemoryModel::Pso,
        Verdict::Unsafe,
        [4531, 85847, 537, 338, 148, 537, 7954, 5035, 12165, 6573],
    ),
];

/// Rows under [`Strategy::Baseline`], where VSIDS makes every decision.
const PINNED_BASELINE: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[
    (
        "driver-races/openclose-3-locked",
        MemoryModel::Pso,
        Verdict::Safe,
        [1253, 58848, 620, 182, 138, 619, 13346, 9921, 13465, 6033],
    ),
    (
        "divine/ring-broken-4",
        MemoryModel::Sc,
        Verdict::Unsafe,
        [6971, 49421, 308, 162, 333, 308, 3892, 2531, 4905, 2347],
    ),
];

/// Rows under [`Strategy::BranchCond`], whose guide ranks event-guard
/// variables instead of interference variables.
const PINNED_BRANCH_COND: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[(
    "pthread/twolocks-3x2",
    MemoryModel::Sc,
    Verdict::Safe,
    [
        3902, 113004, 1056, 327, 223, 1055, 21418, 16268, 22828, 12174,
    ],
)];

/// Rows under [`Strategy::ZpreFixedTrue`], whose guide decides every
/// interference variable true instead of with a seeded random polarity.
const PINNED_FIXED_TRUE: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[(
    "divine/ring-broken-4",
    MemoryModel::Pso,
    Verdict::Unsafe,
    [166, 3736, 48, 14, 2, 48, 622, 346, 398, 301],
)];

/// Horizon of the pinned sweep row (the `sweep-deep` workload's).
const SWEEP_HORIZON: u32 = 8;

/// A [`try_verify_sweep_full`] row under ZPRE over bounds
/// `1..=SWEEP_HORIZON`; its counters are cumulative over every frame.
const PINNED_SWEEP: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[(
    "lit/peterson-w3",
    MemoryModel::Tso,
    Verdict::Unsafe,
    [4780, 48450, 211, 194, 7, 211, 5030, 3367, 5679, 3555],
)];

/// A [`try_verify_sweep_full`] row under [`Strategy::BranchCond`], with the
/// guard order installed once for every frame.
const PINNED_SWEEP_BRANCH_COND: &[(&str, MemoryModel, Verdict, [u64; 10])] = &[(
    "lit/peterson-w3",
    MemoryModel::Tso,
    Verdict::Unsafe,
    [17398, 41103, 192, 128, 11, 192, 4769, 3274, 5444, 3233],
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
