//! Thread-symmetry breaking: which thread pairs the analysis admits, that
//! the independent checker agrees, and that the lex-leader clause keeps
//! every verdict while cutting the serializations (or, without locks, the
//! coherence orders) of identical threads.

use zpre::prelude::*;
use zpre_analysis::{analyze, check_report, PruneReport, SymPair};
use zpre_bench::contended_family;
use zpre_prog::ssa::{EventKind, SsaProgram};
use zpre_prog::{to_ssa, unroll_program};
use zpre_workloads::{suite, Scale};

/// Two identical workers: `r = cnt; <lock>; cnt = r + k; unlock`, with the
/// given statements spliced into `main` between the two spawns.
fn workers(w1: Vec<Stmt>, w2: Vec<Stmt>, between_spawns: Vec<Stmt>) -> Program {
    let mut main = vec![spawn(1)];
    main.extend(between_spawns);
    main.extend([spawn(2), join(1), join(2), assert_(eq(v("cnt"), c(2)))]);
    ProgramBuilder::new("sym")
        .shared("cnt", 0)
        .shared("x", 0)
        .mutex("m")
        .thread("w1", w1)
        .thread("w2", w2)
        .main(main)
        .build()
}

/// The sharp edge: a shared read before the first lock.
fn read_then_lock(k: u64) -> Vec<Stmt> {
    vec![
        assign("r", v("cnt")),
        lock("m"),
        assign("cnt", add(v("r"), c(k))),
        unlock("m"),
    ]
}

fn report(p: &Program, mm: MemoryModel) -> PruneReport {
    let ssa = to_ssa(&unroll_program(p, 1));
    let rep = analyze(&ssa, mm);
    check_report(&ssa, &rep).expect("every admitted pair re-checks");
    rep
}

fn pairs(p: &Program) -> Vec<(usize, usize)> {
    report(p, MemoryModel::Sc)
        .sym_pairs
        .iter()
        .map(|s| (s.first, s.second))
        .collect()
}

#[test]
fn read_before_the_first_lock_is_admitted_and_stays_unsafe() {
    let p = workers(read_then_lock(1), read_then_lock(1), vec![]);
    assert_eq!(pairs(&p), vec![(1, 2)]);
    for mm in MemoryModel::ALL {
        let mut opts = VerifyOptions::new(mm, Strategy::Zpre);
        opts.certify = true;
        let out = try_verify(&p, &opts).unwrap_or_else(|e| panic!("{mm}: {e}"));
        assert_eq!(out.verdict, Verdict::Unsafe, "{mm}");
        assert!(
            matches!(out.certificate, Some(Certificate::Unsafe { replayed_steps }) if replayed_steps > 0),
            "{mm}: witness did not replay: {:?}",
            out.certificate
        );
    }
}

#[test]
fn threads_differing_in_one_constant_are_not_paired() {
    let p = workers(read_then_lock(1), read_then_lock(2), vec![]);
    assert!(pairs(&p).is_empty());
}

#[test]
fn a_conditional_first_lock_is_not_paired() {
    let guarded = vec![
        assign("r", v("cnt")),
        if_(eq(v("r"), c(0)), vec![lock("m")], vec![]),
        assign("cnt", add(v("r"), c(1))),
        unlock("m"),
    ];
    let p = workers(guarded.clone(), guarded, vec![]);
    assert!(pairs(&p).is_empty());
}

#[test]
fn a_main_write_between_the_spawns_blocks_the_pair() {
    let p = workers(
        read_then_lock(1),
        read_then_lock(1),
        vec![assign("x", c(1))],
    );
    assert!(pairs(&p).is_empty());
    // The same program without the write is paired: the test is not vacuous.
    let q = workers(read_then_lock(1), read_then_lock(1), vec![]);
    assert_eq!(pairs(&q), vec![(1, 2)]);
}

#[test]
fn a_tampered_witness_is_rejected() {
    let p = workers(read_then_lock(1), read_then_lock(1), vec![]);
    let ssa = to_ssa(&unroll_program(&p, 1));
    let mut rep = analyze(&ssa, MemoryModel::Sc);
    let leaves = &mut rep.sym_pairs[0].leaves;
    let (a, b) = (leaves[0].1, leaves[1].1);
    (leaves[0].1, leaves[1].1) = (b, a);
    let err = check_report(&ssa, &rep).expect_err("a crossed leaf matching must not check");
    assert!(err.contains("symmetry pair"), "{err}");

    let mut rep = analyze(&ssa, MemoryModel::Sc);
    rep.sym_pairs[0].anchors = (rep.sym_pairs[0].anchors.1, rep.sym_pairs[0].anchors.0);
    check_report(&ssa, &rep).expect_err("anchors from the wrong threads must not check");
}

/// A lock-free worker: `r = cnt; <cond>; cnt = r + 1; x = 1`, where
/// `guarded` puts a conditional write of `x` first.
fn lock_free(guarded: bool) -> Vec<Stmt> {
    let mut body = vec![assign("r", v("cnt"))];
    if guarded {
        body.push(if_(eq(v("r"), c(0)), vec![assign("x", c(1))], vec![]));
    }
    body.extend([assign("cnt", add(v("r"), c(1))), assign("x", c(1))]);
    body
}

/// A witness for threads 1 and 2 built position by position, the way the
/// detector would, with the given anchors.
fn witness(ssa: &SsaProgram, anchors: (usize, usize)) -> SymPair {
    let pairs: Vec<_> = ssa.thread_events(1).zip(ssa.thread_events(2)).collect();
    SymPair {
        first: 1,
        second: 2,
        anchors,
        events: pairs.iter().map(|(a, b)| (a.id, b.id)).collect(),
        leaves: pairs
            .iter()
            .filter_map(|(a, b)| Some((a.kind.value()?, b.kind.value()?)))
            .collect(),
    }
}

/// The `k`-th write of thread `t`.
fn write(ssa: &SsaProgram, t: usize, k: usize) -> usize {
    ssa.thread_events(t)
        .filter(|e| matches!(e.kind, EventKind::Write { .. }))
        .nth(k)
        .expect("write")
        .id
}

#[test]
fn a_tampered_write_anchor_is_rejected() {
    let check = |p: &Program, anchors: fn(&SsaProgram) -> (usize, usize)| {
        let ssa = to_ssa(&unroll_program(p, 1));
        let mut rep = analyze(&ssa, MemoryModel::Sc);
        rep.sym_pairs = vec![witness(&ssa, anchors(&ssa))];
        check_report(&ssa, &rep)
    };
    let rejected = |p: &Program, anchors: fn(&SsaProgram) -> (usize, usize), what: &str| {
        let err = check(p, anchors).expect_err(what);
        assert!(
            err.contains("not an unconditional first lock"),
            "{what}: {err}"
        );
    };
    let racy = workers(lock_free(false), lock_free(false), vec![]);
    // The detector anchors the pair on the first writes, and an honest
    // witness checks: the rejections below are not vacuous.
    let ssa = to_ssa(&unroll_program(&racy, 1));
    let rep = analyze(&ssa, MemoryModel::Sc);
    assert_eq!(rep.sym_pairs.len(), 1);
    assert_eq!(
        rep.sym_pairs[0].anchors,
        (write(&ssa, 1, 0), write(&ssa, 2, 0))
    );
    check(&racy, |s| (write(s, 1, 0), write(s, 2, 0))).expect("first writes check");

    rejected(
        &racy,
        |s| (write(s, 1, 1), write(s, 2, 1)),
        "a second write",
    );
    rejected(
        &racy,
        |s| (write(s, 1, 0), write(s, 1, 0)),
        "a write of the wrong thread",
    );
    rejected(
        &racy,
        |s| (write(s, 2, 0), write(s, 1, 0)),
        "swapped anchors",
    );

    // A conditional first write is not admitted, and a witness naming it
    // does not check.
    let guarded = workers(lock_free(true), lock_free(true), vec![]);
    assert!(pairs(&guarded).is_empty());
    rejected(
        &guarded,
        |s| (write(s, 1, 0), write(s, 2, 0)),
        "a conditional write",
    );

    // A thread with a lock is anchored on its lock, never on a write.
    let locked = workers(read_then_lock(1), read_then_lock(1), vec![]);
    rejected(
        &locked,
        |s| (write(s, 1, 0), write(s, 2, 0)),
        "a locked thread's write",
    );
}

#[test]
fn counter_5x2_is_safe_within_5000_conflicts() {
    let task = suite(Scale::Full)
        .into_iter()
        .find(|t| t.name == "pthread/counter-5x2-locked")
        .expect("suite row");
    let rep = report(&task.program, MemoryModel::Sc);
    assert_eq!(rep.counters.sym_pairs, 4);
    let opts = VerifyOptions {
        unroll_bound: task.unroll_bound,
        max_conflicts: Some(5_000),
        ..VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre)
    };
    let out = try_verify(&task.program, &opts).expect("verifies");
    assert_eq!(out.verdict, Verdict::Safe, "{:?}", out.exhaustion);
    assert!(out.stats.conflicts <= 5_000);
}

#[test]
fn contended_le3_is_safe_within_6000_conflicts() {
    let task = contended_family(3)
        .into_iter()
        .find(|t| t.name == "contended/le3")
        .expect("family row");
    for mm in MemoryModel::ALL {
        let rep = report(&task.program, mm);
        assert_eq!(rep.counters.sym_pairs, 2, "{mm}");
        let opts = VerifyOptions {
            unroll_bound: task.unroll_bound,
            max_conflicts: Some(6_000),
            ..VerifyOptions::new(mm, Strategy::Zpre)
        };
        let out = try_verify(&task.program, &opts).expect("verifies");
        assert_eq!(out.verdict, Verdict::Safe, "{mm}: {:?}", out.exhaustion);
        assert!(
            out.stats.conflicts <= 6_000,
            "{mm}: {}",
            out.stats.conflicts
        );
    }
}
