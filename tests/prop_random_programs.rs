//! Property-based end-to-end validation: random small concurrent programs
//! are verified by the SMT pipeline and cross-checked against exhaustive
//! enumeration on the store-buffer machine (SC, TSO, PSO) and across
//! strategies.

use proptest::prelude::*;
use zpre::{verify, Strategy as SolveStrategy, Verdict, VerifyOptions};
use zpre_prog::build::*;
use zpre_prog::{check, flatten, unroll_program, Limits, MemoryModel, Outcome, Program, Stmt};

/// A tiny statement language over two shared variables and per-thread
/// locals, rich enough to exercise rf/ws/fr, guards and the data path.
#[derive(Clone, Debug)]
enum MiniStmt {
    /// shared[var] := const
    StoreConst(usize, u64),
    /// shared[var] := shared[other] + const
    StoreAdd(usize, usize, u64),
    /// local := shared[var]
    LoadLocal(usize),
    /// shared[var] := local + const
    StoreLocal(usize, u64),
    /// if (shared[var] == const) { shared[other] := const2 }
    CondStore(usize, u64, usize, u64),
    /// lock-protected increment of shared[var]
    LockedInc(usize),
}

const VARS: [&str; 2] = ["x", "y"];

fn arb_stmt() -> impl Strategy<Value = MiniStmt> {
    prop_oneof![
        (0..2usize, 0..4u64).prop_map(|(v, k)| MiniStmt::StoreConst(v, k)),
        (0..2usize, 0..2usize, 0..3u64).prop_map(|(a, b, k)| MiniStmt::StoreAdd(a, b, k)),
        (0..2usize).prop_map(MiniStmt::LoadLocal),
        (0..2usize, 0..3u64).prop_map(|(v, k)| MiniStmt::StoreLocal(v, k)),
        (0..2usize, 0..2u64, 0..2usize, 1..4u64)
            .prop_map(|(v, k, o, k2)| MiniStmt::CondStore(v, k, o, k2)),
        (0..2usize).prop_map(MiniStmt::LockedInc),
    ]
}

fn lower(thread: usize, stmts: &[MiniStmt]) -> Vec<Stmt> {
    let local = format!("l{thread}");
    let mut out = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        match s {
            MiniStmt::StoreConst(v_, k) => out.push(assign(VARS[*v_], c(*k))),
            MiniStmt::StoreAdd(a, b_, k) => out.push(assign(VARS[*a], add(v(VARS[*b_]), c(*k)))),
            MiniStmt::LoadLocal(v_) => out.push(assign(&local, v(VARS[*v_]))),
            MiniStmt::StoreLocal(v_, k) => out.push(assign(VARS[*v_], add(v(&local), c(*k)))),
            MiniStmt::CondStore(v_, k, o, k2) => out.push(when(
                eq(v(VARS[*v_]), c(*k)),
                vec![assign(VARS[*o], c(*k2))],
            )),
            MiniStmt::LockedInc(v_) => {
                let r = format!("r{thread}_{i}");
                out.push(lock("m"));
                out.push(assign(&r, v(VARS[*v_])));
                out.push(assign(VARS[*v_], add(v(&r), c(1))));
                out.push(unlock("m"));
            }
        }
    }
    out
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(arb_stmt(), 1..4),
        prop::collection::vec(arb_stmt(), 1..4),
        0..2usize,
        0..4u64,
        any::<bool>(),
    )
        .prop_map(|(t1, t2, avar, aconst, eq_prop)| {
            let prop_expr = if eq_prop {
                eq(v(VARS[avar]), c(aconst))
            } else {
                ne(v(VARS[avar]), c(aconst))
            };
            ProgramBuilder::new("random")
                .width(4)
                .shared("x", 0)
                .shared("y", 0)
                .mutex("m")
                .thread("t1", lower(1, &t1))
                .thread("t2", lower(2, &t2))
                .main(vec![
                    spawn(1),
                    spawn(2),
                    join(1),
                    join(2),
                    assert_(prop_expr),
                ])
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SMT verdict under every memory model equals the store-buffer
    /// machine's exhaustive enumeration.
    #[test]
    fn smt_matches_oracle_under_every_model(program in arb_program()) {
        let fp = flatten(&unroll_program(&program, 1));
        for mm in MemoryModel::ALL {
            let oracle = check(&fp, mm, Limits::default());
            prop_assume!(oracle != Outcome::ResourceLimit);
            let out = verify(&program, &VerifyOptions::new(mm, SolveStrategy::Zpre));
            prop_assert_eq!(
                out.verdict == Verdict::Safe,
                oracle == Outcome::Safe,
                "{}: smt {:?} vs oracle {:?}\n{}",
                mm,
                out.verdict,
                oracle,
                zpre_prog::pretty::pretty_program(&program)
            );
        }
    }

    /// Baseline and guided strategies agree under every memory model
    /// (the heuristic must not change satisfiability), and the verdicts
    /// respect relaxation monotonicity.
    #[test]
    fn strategies_agree_and_models_are_monotone(program in arb_program()) {
        let mut per_mm = Vec::new();
        for mm in MemoryModel::ALL {
            let mut verdicts = Vec::new();
            for strategy in [SolveStrategy::Baseline, SolveStrategy::ZpreMinus, SolveStrategy::Zpre] {
                let out = verify(&program, &VerifyOptions::new(mm, strategy));
                verdicts.push(out.verdict);
            }
            prop_assert_eq!(verdicts[0], verdicts[1]);
            prop_assert_eq!(verdicts[1], verdicts[2]);
            per_mm.push(verdicts[0]);
        }
        // SC unsafe ⇒ TSO unsafe ⇒ PSO unsafe.
        if per_mm[0] == Verdict::Unsafe {
            prop_assert_eq!(per_mm[1], Verdict::Unsafe);
        }
        if per_mm[1] == Verdict::Unsafe {
            prop_assert_eq!(per_mm[2], Verdict::Unsafe);
        }
    }
}
