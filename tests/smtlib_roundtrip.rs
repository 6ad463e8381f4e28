//! `zpre::dump_smtlib` prints the instance the verifier solves: each dump,
//! read back into a fresh `Solver<OrderTheory, _>` and solved, gives
//! `try_verify`'s verdict. Checked for every example program and every
//! `atomic` and `pthread` task of the quick suite (the families with
//! mutexes and atomic sections), under SC, TSO and PSO, with pruning and
//! symmetry breaking on and off.

#[path = "../crates/core/tests/smtlib_reader/mod.rs"]
mod smtlib_reader;

use std::path::PathBuf;
use zpre::{dump_smtlib, try_verify, Strategy, Verdict, VerifyOptions};
use zpre_prog::{MemoryModel, Program};
use zpre_sat::SolveResult;
use zpre_workloads::{suite, Scale, Subcat};

fn assert_round_trip(name: &str, program: &Program, unroll_bound: u32) {
    for mm in MemoryModel::ALL {
        for prune in [true, false] {
            let opts = VerifyOptions {
                unroll_bound,
                prune,
                ..VerifyOptions::new(mm, Strategy::Zpre)
            };
            let what = format!("{name} {mm} prune={prune}");
            let verdict = try_verify(program, &opts)
                .unwrap_or_else(|e| panic!("{what}: verify failed: {e}"))
                .verdict;
            assert_ne!(verdict, Verdict::Unknown, "{what}");
            let text = dump_smtlib(program, &opts).unwrap_or_else(|e| panic!("{what}: {e}"));
            let read_back = match smtlib_reader::solve_dump(&text) {
                SolveResult::Sat => Verdict::Unsafe,
                SolveResult::Unsat => Verdict::Safe,
                SolveResult::Unknown => Verdict::Unknown,
            };
            assert_eq!(
                read_back, verdict,
                "{what}: the dump reads back differently"
            );
        }
    }
}

#[test]
fn example_dumps_read_back_with_the_verify_verdict() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "zc"))
        .collect();
    files.sort();
    assert!(files.iter().any(|f| f.ends_with("locked_counter.zc")));
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read example");
        let program =
            zpre_prog::parse_program(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert_round_trip(&file.display().to_string(), &program, 2);
    }
}

#[test]
fn atomic_and_pthread_dumps_read_back_with_the_verify_verdict() {
    let tasks: Vec<_> = suite(Scale::Quick)
        .into_iter()
        .filter(|t| matches!(t.subcat, Subcat::Atomic | Subcat::Pthread))
        .collect();
    assert!(tasks.iter().any(|t| t.subcat == Subcat::Atomic));
    assert!(tasks.iter().any(|t| t.subcat == Subcat::Pthread));
    for task in &tasks {
        assert_round_trip(&task.name, &task.program, task.unroll_bound);
    }
}
