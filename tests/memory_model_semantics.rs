//! Memory-model semantics at the suite level:
//!
//! - relaxation monotonicity: behaviours(SC) ⊆ behaviours(TSO) ⊆
//!   behaviours(PSO), so safety verdicts can only *weaken* along that
//!   chain (the paper: "all the false tasks in SC are still false in TSO
//!   and PSO, and some true tasks flip to false");
//! - PSO's preserved program order is a subset of TSO's;
//! - the paper's running example is itself a store-buffering shape that
//!   flips from safe (SC) to unsafe (TSO/PSO).

use std::collections::BTreeSet;
use zpre::{verify, Strategy, Verdict, VerifyOptions};
use zpre_analysis::po_pairs;
use zpre_prog::{to_ssa, unroll_program, MemoryModel};
use zpre_workloads::{suite, Scale};

#[test]
fn safety_is_monotone_in_relaxation() {
    for task in suite(Scale::Quick) {
        let verdict = |mm| {
            let opts = VerifyOptions {
                unroll_bound: task.unroll_bound,
                ..VerifyOptions::new(mm, Strategy::Zpre)
            };
            verify(&task.program, &opts).verdict
        };
        let sc = verdict(MemoryModel::Sc);
        let tso = verdict(MemoryModel::Tso);
        let pso = verdict(MemoryModel::Pso);
        // unsafe under SC ⇒ unsafe under TSO ⇒ unsafe under PSO.
        if sc == Verdict::Unsafe {
            assert_eq!(tso, Verdict::Unsafe, "{}", task.name);
        }
        if tso == Verdict::Unsafe {
            assert_eq!(pso, Verdict::Unsafe, "{}", task.name);
        }
        // equivalently: safe under PSO ⇒ safe under TSO ⇒ safe under SC.
        if pso == Verdict::Safe {
            assert_eq!(tso, Verdict::Safe, "{}", task.name);
        }
        if tso == Verdict::Safe {
            assert_eq!(sc, Verdict::Safe, "{}", task.name);
        }
    }
}

#[test]
fn true_tasks_flip_to_false_but_never_the_reverse() {
    // Aggregate version of the paper's Table 3 observation.
    let mut sc_false = 0;
    let mut tso_false = 0;
    let mut pso_false = 0;
    for task in suite(Scale::Quick) {
        let verdict = |mm| {
            let opts = VerifyOptions {
                unroll_bound: task.unroll_bound,
                ..VerifyOptions::new(mm, Strategy::Zpre)
            };
            verify(&task.program, &opts).verdict
        };
        if verdict(MemoryModel::Sc) == Verdict::Unsafe {
            sc_false += 1;
        }
        if verdict(MemoryModel::Tso) == Verdict::Unsafe {
            tso_false += 1;
        }
        if verdict(MemoryModel::Pso) == Verdict::Unsafe {
            pso_false += 1;
        }
    }
    assert!(sc_false <= tso_false, "{sc_false} > {tso_false}");
    assert!(tso_false <= pso_false, "{tso_false} > {pso_false}");
    assert!(pso_false > sc_false, "relaxation never exposed a new bug");
}

#[test]
fn pso_preserved_order_is_a_subset_of_tso() {
    let mut strictly_fewer_somewhere = false;
    for task in suite(Scale::Quick) {
        let unrolled = unroll_program(&task.program, task.unroll_bound);
        let ssa = to_ssa(&unrolled);
        let tso: BTreeSet<(usize, usize)> = po_pairs(&ssa, MemoryModel::Tso).into_iter().collect();
        let pso: BTreeSet<(usize, usize)> = po_pairs(&ssa, MemoryModel::Pso).into_iter().collect();
        assert!(
            pso.is_subset(&tso),
            "{}: PSO preserves a pair TSO relaxes",
            task.name
        );
        if pso.len() < tso.len() {
            strictly_fewer_somewhere = true;
        }
    }
    assert!(
        strictly_fewer_somewhere,
        "PSO never relaxed anything beyond TSO"
    );
}

#[test]
fn paper_example_is_a_store_buffering_shape() {
    // Fig. 2's program: the reads into m and n can both bypass the pending
    // cross writes once W→R reordering is allowed, so it is safe under SC
    // and unsafe under TSO and PSO — the same flip as the SB litmus.
    use zpre_prog::build::*;
    let program = ProgramBuilder::new("fig2")
        .shared("x", 0)
        .shared("y", 0)
        .shared("m", 0)
        .shared("n", 0)
        .thread(
            "t1",
            vec![assign("x", add(v("y"), c(1))), assign("m", v("y"))],
        )
        .thread(
            "t2",
            vec![assign("y", add(v("x"), c(1))), assign("n", v("x"))],
        )
        .main(vec![
            spawn(1),
            spawn(2),
            join(1),
            join(2),
            assert_(not(and(eq(v("m"), c(0)), eq(v("n"), c(0))))),
        ])
        .build();
    let verdict = |mm| verify(&program, &VerifyOptions::new(mm, Strategy::Zpre)).verdict;
    assert_eq!(verdict(MemoryModel::Sc), Verdict::Safe);
    assert_eq!(verdict(MemoryModel::Tso), Verdict::Unsafe);
    assert_eq!(verdict(MemoryModel::Pso), Verdict::Unsafe);
}

#[test]
fn fences_restore_safety_on_every_fenceable_quick_task() {
    // Every unsafe-under-WMM litmus in the quick suite has a fenced sibling
    // that is safe everywhere; check the pairing holds end to end.
    let tasks = suite(Scale::Quick);
    for task in &tasks {
        if !task.name.contains("-fence") {
            continue;
        }
        for mm in MemoryModel::ALL {
            let opts = VerifyOptions {
                unroll_bound: task.unroll_bound,
                ..VerifyOptions::new(mm, Strategy::Zpre)
            };
            let v = verify(&task.program, &opts).verdict;
            if let Some(expected_safe) = task.expected.get(mm) {
                assert_eq!(v == Verdict::Safe, expected_safe, "{} {mm}", task.name);
            }
        }
    }
}
