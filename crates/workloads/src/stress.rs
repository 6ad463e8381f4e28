//! The `stress` family: seeded pseudo-random concurrent programs.
//!
//! Unlike the hand-shaped families, these programs have no designed
//! verdict — they exist to exercise the pipeline on unstructured
//! interference patterns (mixed guarded/unguarded accesses, conditional
//! writes, partial locking) the way SV-COMP's generated subfamilies do.
//! Ground truth under SC is established for the small instances by the
//! exhaustive oracle in this module's tests; the harness checks only
//! cross-strategy agreement on the rest.

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::harness_program;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use zpre_prog::build::*;
use zpre_prog::{BoolExpr, IntExpr, Stmt};

const VARS: [&str; 3] = ["x", "y", "z"];

fn rand_expr(rng: &mut StdRng, local: &str) -> IntExpr {
    match rng.random_range(0..6) {
        0 => c(rng.random_range(0..8)),
        1 => v(VARS[rng.random_range(0..VARS.len())]),
        2 => v(local),
        3 => add(v(local), c(rng.random_range(1..4))),
        4 => add(
            v(VARS[rng.random_range(0..VARS.len())]),
            c(rng.random_range(0..4)),
        ),
        _ => bxor(v(local), c(rng.random_range(0..8))),
    }
}

fn rand_cond(rng: &mut StdRng, local: &str) -> BoolExpr {
    let lhs = if rng.random_bool(0.5) {
        v(VARS[rng.random_range(0..VARS.len())])
    } else {
        v(local)
    };
    let rhs = c(rng.random_range(0..6));
    match rng.random_range(0..4) {
        0 => eq(lhs, rhs),
        1 => ne(lhs, rhs),
        2 => lt(lhs, rhs),
        _ => ge(lhs, rhs),
    }
}

fn rand_stmts(rng: &mut StdRng, thread: usize, len: usize, allow_locks: bool) -> Vec<Stmt> {
    let local = format!("l{thread}");
    let mut out = Vec::new();
    for i in 0..len {
        match rng.random_range(0..10) {
            0..=3 => {
                // Shared store.
                let tgt = VARS[rng.random_range(0..VARS.len())];
                let e = rand_expr(rng, &local);
                out.push(assign(tgt, e));
            }
            4..=5 => {
                // Local load.
                out.push(assign(&local, v(VARS[rng.random_range(0..VARS.len())])));
            }
            6 => {
                // Conditional store.
                let cond = rand_cond(rng, &local);
                let tgt = VARS[rng.random_range(0..VARS.len())];
                let val = c(rng.random_range(0..8));
                out.push(when(cond, vec![assign(tgt, val)]));
            }
            7 if allow_locks => {
                // Locked read-modify-write.
                let tgt = VARS[rng.random_range(0..VARS.len())];
                let r = format!("r{thread}_{i}");
                out.push(lock("m"));
                out.push(assign(&r, v(tgt)));
                out.push(assign(tgt, add(v(&r), c(1))));
                out.push(unlock("m"));
            }
            _ => {
                // Local computation.
                let e = rand_expr(rng, &local);
                out.push(assign(&local, e));
            }
        }
    }
    out
}

/// One random task. Deterministic per `(seed, threads, len)`.
pub fn stress(seed: u64, threads: usize, len: usize) -> Task {
    let mut rng = StdRng::seed_from_u64(seed);
    let allow_locks = rng.random_bool(0.6);
    let workers: Vec<(String, Vec<Stmt>)> = (0..threads)
        .map(|t| {
            (
                format!("s{t}"),
                rand_stmts(&mut rng, t + 1, len, allow_locks),
            )
        })
        .collect();
    // Property: some random comparison over a shared variable — may or may
    // not hold; the point is the search, not the verdict.
    let target = VARS[rng.random_range(0..VARS.len())];
    let bound = rng.random_range(0..10);
    let property = if rng.random_bool(0.5) {
        le(v(target), c(bound))
    } else {
        ne(v(target), c(bound))
    };
    let name = format!("stress/s{seed}-{threads}x{len}");
    let prog = harness_program(
        &name,
        4,
        &[("x", 0), ("y", 1), ("z", 2)],
        if allow_locks { &["m"] } else { &[] },
        workers,
        property,
    );
    Task::new(&name, Subcat::Stress, prog, 1, Expected::unknown())
}

/// All `stress` tasks.
pub fn tasks(scale: Scale) -> Vec<Task> {
    match scale {
        Scale::Quick => vec![stress(1, 2, 3), stress(2, 2, 3)],
        Scale::Full => (0..12)
            .map(|i| stress(100 + i, 2 + (i as usize % 2), 3 + (i as usize % 4)))
            // The tail of the ladder: instances big enough that cycle-check
            // cost is a visible share of the solve.
            .chain([
                stress(200, 3, 8),
                stress(201, 4, 8),
                stress(202, 4, 10),
                stress(203, 4, 14),
                stress(204, 5, 14),
                stress(205, 6, 12),
            ])
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = stress(7, 2, 4);
        let b = stress(7, 2, 4);
        assert_eq!(a.program, b.program);
        let c_ = stress(8, 2, 4);
        assert_ne!(a.program, c_.program);
    }

    #[test]
    fn programs_validate() {
        for t in tasks(Scale::Full) {
            assert_eq!(t.program.validate(), Ok(()), "{}", t.name);
        }
    }

    /// The SMT verdict matches exhaustive enumeration on every small
    /// stress instance (width 4 keeps the oracle tractable).
    #[test]
    fn smt_matches_oracle_on_small_instances() {
        use zpre_prog::{check, Limits, MemoryModel, Outcome};
        for seed in 0..8 {
            let t = stress(seed, 2, 3);
            let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
            let fp = zpre_prog::flatten(&u);
            let oracle = check(&fp, MemoryModel::Sc, Limits::default());
            if oracle == Outcome::ResourceLimit {
                continue;
            }
            let out = zpre::verify(
                &t.program,
                &zpre::VerifyOptions::new(zpre_prog::MemoryModel::Sc, zpre::Strategy::Zpre),
            );
            assert_eq!(
                out.verdict == zpre::Verdict::Safe,
                oracle == Outcome::Safe,
                "{}: smt={:?} oracle={:?}",
                t.name,
                out.verdict,
                oracle
            );
        }
    }
}
