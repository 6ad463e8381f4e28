//! The `pthread` family: worker threads, mutexes, and counters.

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::harness_program;
use zpre_prog::build::*;
use zpre_prog::Stmt;

/// `workers` threads each increment a shared counter `incs` times.
/// With the mutex the final value is exact (safe); without it lost updates
/// make the assertion fail (unsafe) in every memory model.
fn counter(workers: usize, incs: usize, locked: bool) -> Task {
    let name = format!(
        "pthread/counter-{}x{}-{}",
        workers,
        incs,
        if locked { "locked" } else { "racy" }
    );
    let body = |w: usize| -> Vec<Stmt> {
        let mut stmts = Vec::new();
        for i in 0..incs {
            let r = format!("r{w}_{i}");
            if locked {
                stmts.push(lock("m"));
            }
            stmts.push(assign(&r, v("cnt")));
            stmts.push(assign("cnt", add(v(&r), c(1))));
            if locked {
                stmts.push(unlock("m"));
            }
        }
        stmts
    };
    let threads: Vec<(String, Vec<Stmt>)> =
        (0..workers).map(|w| (format!("w{w}"), body(w))).collect();
    let total = (workers * incs) as u64;
    let prog = harness_program(
        &name,
        8,
        &[("cnt", 0)],
        if locked { &["m"] } else { &[] },
        threads,
        eq(v("cnt"), c(total)),
    );
    let expected = if locked {
        Expected::safe_all()
    } else {
        Expected::unsafe_all()
    };
    Task::new(&name, Subcat::Pthread, prog, 1, expected)
}

/// Bank account: a depositor and a withdrawer under one lock; the balance
/// ends exactly at `init + d*k - w*k`.
fn bank(rounds: usize, locked: bool) -> Task {
    let name = format!(
        "pthread/bank-{}r-{}",
        rounds,
        if locked { "locked" } else { "racy" }
    );
    let mk = |delta_pos: bool, w: usize| -> Vec<Stmt> {
        let mut stmts = Vec::new();
        for i in 0..rounds {
            let r = format!("b{w}_{i}");
            if locked {
                stmts.push(lock("m"));
            }
            stmts.push(assign(&r, v("bal")));
            let expr = if delta_pos {
                add(v(&r), c(5))
            } else {
                sub(v(&r), c(3))
            };
            stmts.push(assign("bal", expr));
            if locked {
                stmts.push(unlock("m"));
            }
        }
        stmts
    };
    let expected_bal = 100u64
        .wrapping_add(5 * rounds as u64)
        .wrapping_sub(3 * rounds as u64)
        & 0xff;
    let prog = harness_program(
        &name,
        8,
        &[("bal", 100)],
        if locked { &["m"] } else { &[] },
        vec![
            ("depositor".to_string(), mk(true, 0)),
            ("withdrawer".to_string(), mk(false, 1)),
        ],
        eq(v("bal"), c(expected_bal)),
    );
    let expected = if locked {
        Expected::safe_all()
    } else {
        Expected::unsafe_all()
    };
    Task::new(&name, Subcat::Pthread, prog, 1, expected)
}

/// Two locks protecting two counters; threads take them in a fixed order
/// (no deadlock in this encoding) and maintain `a + b == 2·rounds·workers`.
fn two_locks(workers: usize, rounds: usize) -> Task {
    let name = format!("pthread/twolocks-{workers}x{rounds}");
    let body = |w: usize| -> Vec<Stmt> {
        let mut stmts = Vec::new();
        for i in 0..rounds {
            let (ra, rb) = (format!("a{w}_{i}"), format!("b{w}_{i}"));
            stmts.push(lock("ma"));
            stmts.push(assign(&ra, v("a")));
            stmts.push(assign("a", add(v(&ra), c(1))));
            stmts.push(unlock("ma"));
            stmts.push(lock("mb"));
            stmts.push(assign(&rb, v("b")));
            stmts.push(assign("b", add(v(&rb), c(1))));
            stmts.push(unlock("mb"));
        }
        stmts
    };
    let threads: Vec<(String, Vec<Stmt>)> =
        (0..workers).map(|w| (format!("w{w}"), body(w))).collect();
    let total = (workers * rounds) as u64;
    let prog = harness_program(
        &name,
        8,
        &[("a", 0), ("b", 0)],
        &["ma", "mb"],
        threads,
        and(eq(v("a"), c(total)), eq(v("b"), c(total))),
    );
    Task::new(&name, Subcat::Pthread, prog, 1, Expected::safe_all())
}

/// All `pthread` tasks at the given scale.
pub fn tasks(scale: Scale) -> Vec<Task> {
    match scale {
        Scale::Quick => vec![counter(2, 1, true), counter(2, 1, false), bank(1, true)],
        Scale::Full => vec![
            counter(2, 1, true),
            counter(2, 1, false),
            counter(2, 2, true),
            counter(2, 2, false),
            counter(3, 1, true),
            counter(3, 1, false),
            counter(3, 2, true),
            counter(2, 3, false),
            counter(4, 2, true),
            counter(4, 2, false),
            counter(3, 3, true),
            counter(5, 2, true),
            bank(1, true),
            bank(1, false),
            bank(2, true),
            bank(2, false),
            bank(3, true),
            bank(3, false),
            two_locks(2, 1),
            two_locks(2, 2),
            two_locks(3, 2),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_validate() {
        for t in tasks(Scale::Full) {
            assert_eq!(t.program.validate(), Ok(()), "{}", t.name);
        }
    }

    #[test]
    fn oracle_agrees_on_small_instances() {
        use zpre_prog::{check, Limits, MemoryModel, Outcome};
        for t in [
            counter(2, 1, true),
            counter(2, 1, false),
            bank(1, true),
            bank(1, false),
        ] {
            let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
            let fp = zpre_prog::flatten(&u);
            let got = check(&fp, MemoryModel::Sc, Limits::default());
            assert_eq!(got == Outcome::Safe, t.expected.sc.unwrap(), "{}", t.name);
        }
    }
}
