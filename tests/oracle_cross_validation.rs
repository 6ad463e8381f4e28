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
