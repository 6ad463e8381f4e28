//! End-to-end resilience of the batch-verification harness, over the
//! public `zpre` API and across all three memory models.
//!
//! The bar (from the issue): kill the batch at an arbitrary journal-write
//! boundary, `--resume`, and the union of both runs' verdicts must be
//! identical to an uninterrupted run; a task exceeding its memory cap must
//! come back as `Unknown` with `Memory` exhaustion and the full degradation
//! ladder on record; and every chaos fault must fail closed — degraded
//! verdicts are acceptable, flipped or crashed ones are not.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use zpre::{
    run_batch, BatchFault, BatchOptions, BatchTask, ExhaustionReason, LadderRung, Strategy,
    Verdict, VerifyError, VerifyOptions,
};
use zpre_prog::build::*;
use zpre_prog::{MemoryModel, Program};

fn tmp_journal(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "zpre-it-batch-{tag}-{}-{n}.ndjson",
        std::process::id()
    ))
}

/// Two threads race on `cnt`: unsafe under every memory model.
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

/// Lock-protected increments: safe under every memory model.
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

/// Sequential loop whose assertion first fails at unwind bound 3: the
/// bound-sweep has to walk several frames, so kills can land mid-sweep.
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

/// The test batch: three programs × SC/TSO/PSO.
fn batch() -> Vec<BatchTask> {
    let mut out = Vec::new();
    for mm in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        out.push(BatchTask::new(racy(), mm, Strategy::Zpre, 4));
        out.push(BatchTask::new(locked(), mm, Strategy::Zpre, 4));
        out.push(BatchTask::new(kstar3(), mm, Strategy::Zpre, 6));
    }
    out
}

fn fast_opts() -> BatchOptions {
    BatchOptions {
        backoff: Duration::ZERO,
        ..BatchOptions::default()
    }
}

/// Uninterrupted reference run, shared by the equivalence tests.
fn clean_verdicts() -> Vec<(String, Verdict, u32)> {
    run_batch(&batch(), &fast_opts()).verdicts()
}

#[test]
fn batch_covers_all_memory_models_with_expected_verdicts() {
    let out = run_batch(&batch(), &fast_opts());
    assert!(!out.interrupted);
    assert_eq!(out.reports.len(), 9);
    for r in &out.reports {
        let (name, verdict) = (r.key.split('@').next().unwrap(), r.verdict);
        match name {
            "racy" => assert_eq!(verdict, Verdict::Unsafe, "{}", r.key),
            "locked" => assert_eq!(verdict, Verdict::Safe, "{}", r.key),
            "kstar3" => {
                assert_eq!(verdict, Verdict::Unsafe, "{}", r.key);
                assert_eq!(r.bound, 3, "{}: k* = 3", r.key);
            }
            other => panic!("unexpected task {other}"),
        }
    }
}

/// The acceptance bar for resource sandboxing: a task that cannot fit in
/// its memory cap is reported as `Unknown` with `Memory` exhaustion, the
/// batch keeps going, and every rung of the degradation ladder is on
/// record (nothing silently skipped, nothing crashed).
#[test]
fn memory_capped_task_is_unknown_memory_with_full_ladder() {
    let opts = BatchOptions {
        base: VerifyOptions {
            max_memory: Some(1024),
            ..VerifyOptions::default()
        },
        ..fast_opts()
    };
    let out = run_batch(&batch(), &opts);
    assert!(!out.interrupted, "a memory cap must not stop the batch");
    assert_eq!(out.reports.len(), 9);
    for r in &out.reports {
        assert_eq!(r.verdict, Verdict::Unknown, "{}", r.key);
        assert_eq!(r.exhaustion, Some(ExhaustionReason::Memory), "{}", r.key);
        assert_eq!(
            r.as_error(),
            Some(VerifyError::Exhausted(ExhaustionReason::Memory)),
            "{}",
            r.key
        );
        let rungs: Vec<LadderRung> = r.ladder.iter().map(|rec| rec.rung).collect();
        assert_eq!(
            rungs,
            vec![
                LadderRung::Primary,
                LadderRung::ZpreMinus,
                LadderRung::Baseline,
                LadderRung::ReducedBound
            ],
            "{}",
            r.key
        );
    }
}

/// Chaos matrix: every batch fault fails closed. A faulted run may degrade
/// tasks to `Unknown`, but any definitive verdict it does report must match
/// the clean run, and the harness itself must survive.
#[test]
fn chaos_matrix_fails_closed() {
    let clean = clean_verdicts();
    for fault in BatchFault::ALL {
        let path = tmp_journal(fault.name());
        let faulted = run_batch(
            &batch(),
            &BatchOptions {
                journal: Some(path.clone()),
                fault: Some(fault),
                ..fast_opts()
            },
        );
        for r in &faulted.reports {
            if r.verdict != Verdict::Unknown {
                assert!(
                    clean.contains(&(r.key.clone(), r.verdict, r.bound)),
                    "{}: fault {} flipped a definitive verdict",
                    r.key,
                    fault.name()
                );
            }
        }
        // Resume after the fault: the batch must complete with verdicts
        // identical to the clean run. Only the journal-corruption fault
        // re-fires on resume (that is where it acts); re-arming the kill
        // would just kill the resume too.
        if matches!(
            fault,
            BatchFault::MidBatchKill(_) | BatchFault::CorruptJournal
        ) {
            let resumed = run_batch(
                &batch(),
                &BatchOptions {
                    journal: Some(path.clone()),
                    resume: true,
                    fault: matches!(fault, BatchFault::CorruptJournal).then_some(fault),
                    ..fast_opts()
                },
            );
            assert!(!resumed.interrupted, "resume after {}", fault.name());
            assert_eq!(resumed.verdicts(), clean, "resume after {}", fault.name());
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A journal whose final line was torn mid-append (crash between `write`
/// and the newline) must be tolerated: the torn line is dropped and its
/// work re-derived, never a parse crash or a wrong verdict.
#[test]
fn torn_final_journal_line_resumes_soundly() {
    let clean = clean_verdicts();
    let path = tmp_journal("torn");
    run_batch(
        &batch(),
        &BatchOptions {
            journal: Some(path.clone()),
            ..fast_opts()
        },
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let trimmed = text.trim_end();
    let last_start = trimmed.rfind('\n').map_or(0, |i| i + 1);
    let mut keep = last_start + (trimmed.len() - last_start) / 2;
    while keep > 0 && !trimmed.is_char_boundary(keep) {
        keep -= 1;
    }
    std::fs::write(&path, &trimmed[..keep]).unwrap();

    let resumed = run_batch(
        &batch(),
        &BatchOptions {
            journal: Some(path.clone()),
            resume: true,
            ..fast_opts()
        },
    );
    assert!(!resumed.interrupted);
    assert_eq!(resumed.verdicts(), clean);
    let _ = std::fs::remove_file(&path);
}

/// A task line answers a resume only under the horizon it was reached
/// at: `kstar3` is safe through bound 2, and resuming its journal under
/// horizon 6 must still find the violation at bound 3, reusing the two
/// journaled safe frames instead of the horizon-2 verdict.
#[test]
fn resume_under_a_larger_horizon_does_not_reuse_the_smaller_verdict() {
    let path = tmp_journal("horizon");
    let run = |max_bound, resume| {
        let task = BatchTask::new(kstar3(), MemoryModel::Sc, Strategy::Zpre, max_bound);
        let opts = BatchOptions {
            journal: Some(path.clone()),
            resume,
            ..fast_opts()
        };
        run_batch(&[task], &opts).reports.remove(0)
    };
    let short = run(2, false);
    assert_eq!((short.verdict, short.bound), (Verdict::Safe, 2));
    let long = run(6, true);
    let _ = std::fs::remove_file(&path);
    assert_eq!((long.verdict, long.bound), (Verdict::Unsafe, 3));
    assert!(!long.from_journal, "frame 3 was solved");
    assert_eq!(long.resumed_at, Some(3), "frames 1-2 came from the journal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill/resume equivalence at a random write boundary: killing the
    /// batch at the `kill_at`-th journal append and resuming yields
    /// exactly the uninterrupted run's verdicts — for every kill point,
    /// including ones that land mid-sweep inside a task.
    #[test]
    fn killed_batch_resumes_to_clean_verdicts(kill_at in 0u64..24) {
        let clean = clean_verdicts();
        let path = tmp_journal("prop-kill");
        let killed = run_batch(
            &batch(),
            &BatchOptions {
                journal: Some(path.clone()),
                fault: Some(BatchFault::MidBatchKill(kill_at)),
                ..fast_opts()
            },
        );
        let resumed = run_batch(
            &batch(),
            &BatchOptions {
                journal: Some(path.clone()),
                resume: true,
                ..fast_opts()
            },
        );
        let _ = std::fs::remove_file(&path);
        // A kill past the last write is a no-op; either way the resumed
        // (or never-interrupted) run must land on the clean verdicts.
        if killed.interrupted {
            prop_assert!(killed.reports.len() < 9 || killed.verdicts() == clean);
        }
        prop_assert!(!resumed.interrupted);
        prop_assert_eq!(resumed.verdicts(), clean);
    }
}
