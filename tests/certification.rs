//! End-to-end certification tests: certified verdicts carry independently
//! checked evidence, injected faults are rejected fail-closed, and
//! certified verdicts agree with the explicit-state oracle on random
//! programs.

use proptest::prelude::*;
use zpre::{
    try_verify, try_verify_portfolio_sweep, try_verify_sweep, try_verify_sweep_full, verify_bmc,
    verify_portfolio, Certificate, Fault, MemberResult, PortfolioOptions, PortfolioOutcome,
    ShareConfig, ShareSpec, Strategy as SolveStrategy, Verdict, VerifyError, VerifyOptions,
    VerifyOutcome,
};
use zpre_prog::build::*;
use zpre_prog::{check, flatten, unroll_program, Limits, MemoryModel, Outcome, Program, Stmt};
use zpre_sat::SharedPool;

fn racy() -> Program {
    let inc = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
    ProgramBuilder::new("racy")
        .shared("cnt", 0)
        .thread("w1", inc.clone())
        .thread("w2", inc)
        .main(vec![
            spawn(1),
            spawn(2),
            join(1),
            join(2),
            assert_(eq(v("cnt"), c(2))),
        ])
        .build()
}

fn locked() -> Program {
    let inc = vec![
        lock("m"),
        assign("r", v("cnt")),
        assign("cnt", add(v("r"), c(1))),
        unlock("m"),
    ];
    ProgramBuilder::new("locked")
        .shared("cnt", 0)
        .mutex("m")
        .thread("w1", inc.clone())
        .thread("w2", inc)
        .main(vec![
            spawn(1),
            spawn(2),
            join(1),
            join(2),
            assert_(eq(v("cnt"), c(2))),
        ])
        .build()
}

fn certified_opts(mm: MemoryModel, strategy: SolveStrategy) -> VerifyOptions {
    let mut opts = VerifyOptions::new(mm, strategy);
    opts.certify = true;
    opts
}

/// Safe verdicts carry a RUP-checked proof whose theory lemmas all had
/// their cycles re-derived by the standalone checker — under every memory model
/// and every main strategy.
#[test]
fn certified_safe_proofs_check_out() {
    let mut saw_lemmas = false;
    for mm in MemoryModel::ALL {
        for strategy in SolveStrategy::MAIN {
            let out = try_verify(&locked(), &certified_opts(mm, strategy))
                .unwrap_or_else(|e| panic!("{mm} {strategy}: {e}"));
            assert_eq!(out.verdict, Verdict::Safe, "{mm} {strategy}");
            match out.certificate {
                Some(Certificate::Safe {
                    lemmas_checked,
                    proof_steps,
                }) => {
                    assert!(proof_steps > 0, "{mm} {strategy}: empty proof");
                    saw_lemmas |= lemmas_checked > 0;
                }
                other => panic!("{mm} {strategy}: expected Safe certificate, got {other:?}"),
            }
        }
    }
    // At least one configuration must have exercised the lemma re-checker,
    // otherwise the fault matrix below tests nothing.
    assert!(saw_lemmas, "no configuration produced theory lemmas");
}

/// Unsafe verdicts replay through the concrete interpreter — under every
/// memory model (exercising the SC, TSO and PSO replay machines).
#[test]
fn certified_unsafe_witnesses_replay() {
    for mm in MemoryModel::ALL {
        let out = try_verify(&racy(), &certified_opts(mm, SolveStrategy::Zpre))
            .unwrap_or_else(|e| panic!("{mm}: {e}"));
        assert_eq!(out.verdict, Verdict::Unsafe, "{mm}");
        match out.certificate {
            Some(Certificate::Unsafe { replayed_steps }) => {
                assert!(replayed_steps > 0, "{mm}: empty schedule");
            }
            other => panic!("{mm}: expected Unsafe certificate, got {other:?}"),
        }
    }
}

/// The fault matrix: every injected fault is either rejected fail-closed
/// by the certifier (when it corrupts that verdict's evidence) or provably
/// harmless (verdict and certificate unchanged). Nothing ever panics.
#[test]
fn fault_matrix_fails_closed() {
    // Which faults corrupt which verdict's certification artifacts.
    let hits_safe = |f: Fault| {
        matches!(
            f,
            Fault::DropLemmas | Fault::ForgeLemma | Fault::TruncateProof(_) | Fault::ForgeSymmetry
        )
    };
    let hits_unsafe = |f: Fault| matches!(f, Fault::FlipModelBit | Fault::ForgeSymmetry);

    for fault in Fault::ALL {
        for (program, verdict) in [(locked(), Verdict::Safe), (racy(), Verdict::Unsafe)] {
            let mut opts = certified_opts(MemoryModel::Sc, SolveStrategy::Zpre);
            opts.fault = Some(fault);
            let result = try_verify(&program, &opts);
            let should_fail = match verdict {
                Verdict::Safe => hits_safe(fault),
                Verdict::Unsafe => hits_unsafe(fault),
                Verdict::Unknown => unreachable!(),
            };
            if should_fail {
                let err =
                    result.expect_err(&format!("{} on {} must be rejected", fault.name(), verdict));
                assert!(
                    matches!(err, VerifyError::Certification { .. }),
                    "{}: wrong error class: {err}",
                    fault.name()
                );
                // A forged symmetry pair is caught by the analysis checker,
                // before any clause of it reaches the solver; a corrupted
                // lemma by the lemma checker, before the RUP check.
                let stage = match fault {
                    Fault::ForgeSymmetry => Some("prune"),
                    Fault::DropLemmas | Fault::ForgeLemma => Some("lemma"),
                    _ => None,
                };
                if let (Some(want), VerifyError::Certification { stage, .. }) = (stage, &err) {
                    assert_eq!(*stage, want, "{}: {err}", fault.name());
                }
            } else {
                let out = result.unwrap_or_else(|e| {
                    panic!("{} on {} must be harmless: {e}", fault.name(), verdict)
                });
                assert_eq!(out.verdict, verdict, "{}", fault.name());
                assert!(out.certificate.is_some(), "{}", fault.name());
            }
        }
    }
}

/// A loop whose bug needs three iterations: a sweep's or a `--bmc` loop's
/// witness replays through unwinding markers.
fn kstar3() -> Program {
    ProgramBuilder::new("kstar3")
        .width(8)
        .shared("x", 0)
        .main(vec![
            while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
            assert_(ne(v("x"), c(3))),
        ])
        .build()
}

/// Every driver replays every `Unsafe` frame, certified or not: a witness
/// with a flipped access value fails each of them with a replay rejection
/// (a race quarantines every member on it), and the same run without the
/// fault is `Unsafe`.
#[test]
fn flipped_witness_is_rejected_by_every_driver() {
    type Driver = fn(&Program, &VerifyOptions) -> Result<VerifyOutcome, VerifyError>;
    let drivers: [(&str, Driver); 6] = [
        ("try_verify", try_verify),
        ("try_verify_sweep", try_verify_sweep),
        ("try_verify_sweep_full", try_verify_sweep_full),
        ("verify_bmc", |p, o| verify_bmc(p, o.max_bound, o)),
        ("verify_portfolio", |p, o| {
            race_result(verify_portfolio(p, &PortfolioOptions::new(o.clone())))
        }),
        ("try_verify_portfolio_sweep", |p, o| {
            race_result(try_verify_portfolio_sweep(
                p,
                &PortfolioOptions::new(o.clone()),
            )?)
        }),
    ];
    for mm in MemoryModel::ALL {
        for program in [racy(), kstar3()] {
            for (name, run) in drivers {
                let mut opts = VerifyOptions::new(mm, SolveStrategy::Zpre);
                opts.unroll_bound = 3;
                opts.max_bound = 4;
                let clean = run(&program, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    clean.verdict,
                    Verdict::Unsafe,
                    "{name} {mm} {}",
                    program.name
                );
                opts.fault = Some(Fault::FlipModelBit);
                match run(&program, &opts) {
                    Err(VerifyError::Certification {
                        stage: "replay", ..
                    }) => {}
                    other => panic!(
                        "{name} {mm} {}: expected a replay rejection, got {other:?}",
                        program.name
                    ),
                }
            }
        }
    }
}

/// A race as one run: it fails with a replay rejection when every member,
/// the bounded retry included, was quarantined with one.
fn race_result(folio: PortfolioOutcome) -> Result<VerifyOutcome, VerifyError> {
    let rejected = |m: &MemberResult| {
        m.error
            .as_deref()
            .is_some_and(|e| e.starts_with("certification failed at replay stage"))
    };
    if folio.winner.is_none() && folio.members.iter().all(rejected) {
        return Err(VerifyError::Certification {
            stage: "replay",
            reason: folio.unknown_reason.unwrap_or_default(),
        });
    }
    Ok(folio.outcome)
}

/// `DropLemmas` specifically: the control run must contain theory lemmas
/// (otherwise the fault has nothing to empty and the matrix entry is
/// vacuous), and emptying their clauses must be detected: an empty clause
/// asserts no edge, so the checker finds no cycle to justify it.
#[test]
fn dropped_lemma_justifications_are_detected() {
    let opts = certified_opts(MemoryModel::Sc, SolveStrategy::Zpre);
    let out = try_verify(&locked(), &opts).expect("control run certifies");
    let Some(Certificate::Safe { lemmas_checked, .. }) = out.certificate else {
        panic!("expected Safe certificate");
    };
    assert!(lemmas_checked > 0, "control proof carries no theory lemmas");

    let mut faulty = opts;
    faulty.fault = Some(Fault::DropLemmas);
    let err = try_verify(&locked(), &faulty).expect_err("dropped lemmas must be detected");
    assert!(
        matches!(err, VerifyError::Certification { stage: "lemma", .. }),
        "{err}"
    );
}

/// Certification with clause sharing. A certified portfolio race with
/// sharing still certifies its Safe verdict. The race decides when a member
/// imports, so the import path itself is pinned with the two members run
/// one after the other over one pool: a plain member publishes everything
/// it exports, learnt clauses included, and the certified member after it
/// admits only the theory lemmas among them. Its Safe proof then holds
/// imported lemmas, each re-derived by the certifier.
#[test]
fn shared_certified_portfolio_still_certifies() {
    let tasks = zpre_workloads::suite(zpre_workloads::Scale::Full);
    let task = tasks
        .iter()
        .find(|t| t.name == "pthread/counter-3x2-locked")
        .expect("task in the Full suite");
    let safe_certificate = |c: &Option<Certificate>| matches!(c, Some(Certificate::Safe { .. }));
    for mm in MemoryModel::ALL {
        let mut base = certified_opts(mm, SolveStrategy::Zpre);
        base.unroll_bound = task.unroll_bound;

        let race = PortfolioOptions::new(base.clone()).with_share(ShareConfig::default());
        let folio = verify_portfolio(&task.program, &race);
        assert_eq!(
            folio.verdict(),
            Verdict::Safe,
            "{mm}: {:?}",
            folio.unknown_reason
        );
        assert!(
            folio.quarantined.is_empty(),
            "{mm}: {:?}",
            folio.quarantined
        );
        assert!(safe_certificate(&folio.outcome.certificate), "{mm}");

        let pool = SharedPool::new(ShareConfig::default().pool_cap);
        let member = |member: u32, certify: bool| {
            let mut opts = base.clone();
            opts.certify = certify;
            opts.seed += u64::from(member);
            opts.share = Some(ShareSpec {
                pool: pool.clone(),
                member,
                cfg: ShareConfig::default(),
            });
            try_verify(&task.program, &opts).unwrap_or_else(|e| panic!("{mm}: {e}"))
        };
        let plain = member(0, false);
        assert!(
            plain.stats.sh_exported > plain.stats.sh_exported_theory,
            "{mm}"
        );
        let certified = member(1, true);
        assert_eq!(certified.verdict, Verdict::Safe, "{mm}");
        assert!(safe_certificate(&certified.certificate), "{mm}");
        assert!(
            certified.stats.sh_imported > 0,
            "{mm}: no theory lemma imported"
        );
        assert!(
            certified.stats.sh_dropped > 0,
            "{mm}: no learnt clause refused"
        );
    }
}

// ---------------------------------------------------------------------------
// Random programs: certified verdicts agree with the explicit-state oracle.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum MiniStmt {
    StoreConst(usize, u64),
    StoreAdd(usize, usize, u64),
    LoadStore(usize, u64),
    CondStore(usize, u64, usize, u64),
    LockedInc(usize),
}

const VARS: [&str; 2] = ["x", "y"];

fn arb_stmt() -> impl Strategy<Value = MiniStmt> {
    prop_oneof![
        (0..2usize, 0..4u64).prop_map(|(v, k)| MiniStmt::StoreConst(v, k)),
        (0..2usize, 0..2usize, 0..3u64).prop_map(|(a, b, k)| MiniStmt::StoreAdd(a, b, k)),
        (0..2usize, 0..3u64).prop_map(|(v, k)| MiniStmt::LoadStore(v, k)),
        (0..2usize, 0..2u64, 0..2usize, 1..4u64)
            .prop_map(|(v, k, o, k2)| MiniStmt::CondStore(v, k, o, k2)),
        (0..2usize).prop_map(MiniStmt::LockedInc),
    ]
}

fn lower(thread: usize, stmts: &[MiniStmt]) -> Vec<Stmt> {
    let mut out = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        let local = format!("l{thread}_{i}");
        match s {
            MiniStmt::StoreConst(v_, k) => out.push(assign(VARS[*v_], c(*k))),
            MiniStmt::StoreAdd(a, b_, k) => out.push(assign(VARS[*a], add(v(VARS[*b_]), c(*k)))),
            MiniStmt::LoadStore(v_, k) => {
                out.push(assign(&local, v(VARS[*v_])));
                out.push(assign(VARS[*v_], add(v(&local), c(*k))));
            }
            MiniStmt::CondStore(v_, k, o, k2) => out.push(when(
                eq(v(VARS[*v_]), c(*k)),
                vec![assign(VARS[*o], c(*k2))],
            )),
            MiniStmt::LockedInc(v_) => {
                out.push(lock("m"));
                out.push(assign(&local, v(VARS[*v_])));
                out.push(assign(VARS[*v_], add(v(&local), c(1))));
                out.push(unlock("m"));
            }
        }
    }
    out
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(arb_stmt(), 1..3),
        prop::collection::vec(arb_stmt(), 1..3),
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Certified verdicts agree with exhaustive enumeration on the
    /// store-buffer machine under every memory model, and every definitive
    /// verdict carries the matching certificate kind.
    #[test]
    fn certified_verdicts_match_oracle(program in arb_program()) {
        let fp = flatten(&unroll_program(&program, 1));
        for mm in MemoryModel::ALL {
            let oracle = check(&fp, mm, Limits::default());
            prop_assume!(oracle != Outcome::ResourceLimit);
            let mut opts = certified_opts(mm, SolveStrategy::Zpre);
            opts.unroll_bound = 1;
            let out = try_verify(&program, &opts).map_err(|e| {
                TestCaseError::Fail(format!(
                    "certification failed under {mm}: {e}\n{}",
                    zpre_prog::pretty::pretty_program(&program)
                ))
            })?;
            prop_assert_eq!(
                out.verdict == Verdict::Safe,
                oracle == Outcome::Safe,
                "{}: smt {:?} vs oracle {:?}\n{}",
                mm,
                out.verdict,
                oracle,
                zpre_prog::pretty::pretty_program(&program)
            );
            match (out.verdict, &out.certificate) {
                (Verdict::Safe, Some(Certificate::Safe { .. })) => {}
                (Verdict::Unsafe, Some(Certificate::Unsafe { .. })) => {}
                (v, c) => prop_assert!(false, "{mm}: verdict {v} with certificate {c:?}"),
            }
        }
    }
}
