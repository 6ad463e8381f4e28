//! Pins the CDCL(T) search: the exact work counters of a few small
//! Full-suite rows under the default ZPRE strategy.
//!
//! Hot-path rewrites of the solver or the order theory (data-structure
//! swaps, buffer reuse) must leave the search itself untouched: every
//! decision, propagation, conflict, theory lemma and EOG check happens in
//! the same order, so every counter below stays equal to the last digit. A
//! change that alters the search on purpose (a new heuristic, a different
//! propagation order) re-records the table and says so.

use zpre::prelude::*;
use zpre_sat::Stats;
use zpre_workloads::{suite, Scale};

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

#[test]
fn search_counters_are_pinned() {
    let tasks = suite(Scale::Full);
    for &(name, mm, verdict, pinned) in PINNED {
        let task = tasks
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the Full suite"));
        let opts = VerifyOptions {
            unroll_bound: task.unroll_bound,
            ..VerifyOptions::new(mm, Strategy::Zpre)
        };
        let out = verify(&task.program, &opts);
        assert_eq!(out.verdict, verdict, "{name} {mm}");
        let got = counters(&out.stats);
        let drift: Vec<String> = NAMES
            .iter()
            .zip(pinned.iter().zip(got.iter()))
            .filter(|(_, (p, g))| p != g)
            .map(|(n, (p, g))| format!("{n}: pinned {p}, got {g}"))
            .collect();
        assert!(drift.is_empty(), "{name} {mm}: {}", drift.join("; "));
    }
}
