//! Cross-validation of the SMT pipeline against the explicit-state oracles:
//! every small-suite verdict must agree with exhaustive interleaving
//! enumeration (SC) and with the operational store-buffer models (TSO/PSO).

use zpre::{verify, Strategy, Verdict, VerifyOptions};
use zpre_prog::{check, flatten, unroll_program, Limits, MemoryModel, Outcome};
use zpre_workloads::{oracle_suite, Task};

fn oracle_outcome(task: &Task, mm: MemoryModel) -> Outcome {
    let unrolled = unroll_program(&task.program, task.unroll_bound);
    let fp = flatten(&unrolled);
    let outcome = check(
        &fp,
        mm,
        Limits {
            max_states: 30_000_000,
        },
    );
    assert_ne!(
        outcome,
        Outcome::ResourceLimit,
        "{} under {mm}: the oracle hit its state limit",
        task.name
    );
    outcome
}

fn smt_verdict(task: &Task, mm: MemoryModel) -> Verdict {
    let opts = VerifyOptions {
        unroll_bound: task.unroll_bound,
        ..VerifyOptions::new(mm, Strategy::Zpre)
    };
    verify(&task.program, &opts).verdict
}

#[test]
fn sc_verdicts_match_exhaustive_enumeration() {
    for task in oracle_suite() {
        let oracle = oracle_outcome(&task, MemoryModel::Sc);
        let smt = smt_verdict(&task, MemoryModel::Sc);
        assert_eq!(
            smt == Verdict::Safe,
            oracle == Outcome::Safe,
            "{}: smt={smt:?} oracle={oracle:?}",
            task.name
        );
    }
}

#[test]
fn tso_verdicts_match_store_buffer_model() {
    for task in oracle_suite() {
        let oracle = oracle_outcome(&task, MemoryModel::Tso);
        let smt = smt_verdict(&task, MemoryModel::Tso);
        assert_eq!(
            smt == Verdict::Safe,
            oracle == Outcome::Safe,
            "{}: smt={smt:?} oracle={oracle:?}",
            task.name
        );
    }
}

#[test]
fn pso_verdicts_match_store_buffer_model() {
    for task in oracle_suite() {
        let oracle = oracle_outcome(&task, MemoryModel::Pso);
        let smt = smt_verdict(&task, MemoryModel::Pso);
        assert_eq!(
            smt == Verdict::Safe,
            oracle == Outcome::Safe,
            "{}: smt={smt:?} oracle={oracle:?}",
            task.name
        );
    }
}

#[test]
fn generator_ground_truth_matches_oracles() {
    // The `expected` fields of the oracle suite must themselves agree with
    // the oracles — guarding against wrong ground-truth annotations.
    for task in oracle_suite() {
        for mm in MemoryModel::ALL {
            let Some(expected_safe) = task.expected.get(mm) else {
                continue;
            };
            let oracle = oracle_outcome(&task, mm);
            assert_eq!(
                oracle == Outcome::Safe,
                expected_safe,
                "{} under {mm}: annotation says safe={expected_safe}, oracle says {oracle:?}",
                task.name
            );
        }
    }
}

/// Full-suite rows whose worker threads are identical, small enough for
/// the oracle: the symmetry-breaking clauses that pruning adds must keep
/// every verdict the store-buffer machine gives.
const SYMMETRIC_ROWS: [&str; 14] = [
    "pthread/counter-2x2-locked",
    "pthread/counter-3x1-locked",
    "pthread/counter-3x2-locked",
    "pthread/twolocks-2x1",
    "pthread/twolocks-2x2",
    "driver-races/openclose-2-locked",
    "driver-races/openclose-3-locked",
    // Lock-free: the pairs are anchored on the threads' first writes.
    "pthread/counter-2x1-racy",
    "pthread/counter-2x2-racy",
    "pthread/counter-3x1-racy",
    "atomic/counter-2",
    "atomic/counter-3",
    "divine/ring-broken-2",
    "driver-races/openclose-2-racy",
];

#[test]
fn symmetric_rows_match_the_oracles() {
    let tasks = zpre_workloads::suite(zpre_workloads::Scale::Full);
    for name in SYMMETRIC_ROWS {
        let task = tasks
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the Full suite"));
        let ssa = zpre_prog::to_ssa(&unroll_program(&task.program, task.unroll_bound));
        for mm in MemoryModel::ALL {
            let pairs = zpre_analysis::analyze(&ssa, mm).counters.sym_pairs;
            assert!(pairs > 0, "{name}: no symmetric pair admitted");
            let oracle = oracle_outcome(task, mm);
            let smt = smt_verdict(task, mm);
            assert_eq!(
                smt == Verdict::Safe,
                oracle == Outcome::Safe,
                "{name} under {mm}: smt={smt:?} oracle={oracle:?}"
            );
        }
    }
}

/// The smallest `max_states` at which `check` returns a verdict on
/// `counter-3x2-locked` is the number of states the oracle stores. A change
/// to how the machine represents a state must leave it where it is; a
/// reduction that drops it re-records it and names the drop.
#[test]
fn oracle_state_counts_are_pinned() {
    let tasks = zpre_workloads::suite(zpre_workloads::Scale::Full);
    let task = tasks
        .iter()
        .find(|t| t.name == "pthread/counter-3x2-locked")
        .expect("suite row");
    let fp = flatten(&unroll_program(&task.program, task.unroll_bound));
    for (mm, states) in [
        (MemoryModel::Sc, 2615),
        (MemoryModel::Tso, 3051),
        (MemoryModel::Pso, 3051),
    ] {
        let limits = |max_states| Limits { max_states };
        assert_eq!(check(&fp, mm, limits(states)), Outcome::Safe, "{mm}");
        assert_eq!(
            check(&fp, mm, limits(states - 1)),
            Outcome::ResourceLimit,
            "{mm}"
        );
    }
}
