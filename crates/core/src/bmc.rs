//! The bounded-model-checking driver loop.
//!
//! The paper's experimental setup generates one SMT instance per loop
//! unrolling bound (1..6) and solves each: if the bound is below the
//! minimal violating depth `k*` the instance is unsatisfiable, at or above
//! it the instance is satisfiable. This module packages that loop: iterate
//! bounds upward until a violation is found or the bound budget is
//! exhausted. The loop wraps any single-bound step — a plain
//! [`try_verify`] ([`verify_bmc`]) or one portfolio race per bound
//! ([`verify_bmc_with`]). Each step builds its own instance, so nothing,
//! shared clauses included, crosses from one bound to the next.

use crate::errors::VerifyError;
use crate::verifier::{try_verify, Verdict, VerifyOptions, VerifyOutcome};
use zpre_prog::Program;

/// Runs BMC with bounds `1..=max_bound`, one [`try_verify`] per bound
/// (skipping redundant re-encodings for loop-free programs, where every
/// bound yields the same instance — the deduplication the paper applies to
/// its SMT files). A bound that fails (model validation, certification)
/// ends the loop with its typed error.
pub fn verify_bmc(
    prog: &Program,
    max_bound: u32,
    opts: &VerifyOptions,
) -> Result<VerifyOutcome, VerifyError> {
    verify_bmc_with(prog, max_bound, opts, |o| try_verify(prog, o))
}

/// The bound loop of [`verify_bmc`] around any single-bound `step`, called
/// with `opts` at `unroll_bound = 1, 2, …` until a bound is not `Safe`.
///
/// Returns the deciding bound's outcome (its verdict, statistics and
/// certificate: the paper's `k*` for `Unsafe`, the last bound for `Safe`)
/// with every solved bound's frames in `frames`.
pub fn verify_bmc_with(
    prog: &Program,
    max_bound: u32,
    opts: &VerifyOptions,
    mut step: impl FnMut(&VerifyOptions) -> Result<VerifyOutcome, VerifyError>,
) -> Result<VerifyOutcome, VerifyError> {
    let last = if prog.has_loops() {
        max_bound.max(1)
    } else {
        1
    };
    let mut frames = Vec::new();
    let mut bound = 1;
    loop {
        let mut out = step(&VerifyOptions {
            unroll_bound: bound,
            ..opts.clone()
        })?;
        frames.append(&mut out.frames);
        if out.verdict != Verdict::Safe || bound == last {
            return Ok(VerifyOutcome {
                bound,
                frames,
                ..out
            });
        }
        bound += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use zpre_prog::build::*;
    use zpre_prog::MemoryModel;

    /// A loop must run exactly 3 times before the bug is reachable:
    /// `k* = 3` in the paper's notation.
    fn needs_three_iterations() -> zpre_prog::Program {
        ProgramBuilder::new("kstar3")
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(ne(v("x"), c(3))),
            ])
            .build()
    }

    #[test]
    fn finds_minimal_violating_bound() {
        let opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        let out = verify_bmc(&needs_three_iterations(), 6, &opts).unwrap();
        assert_eq!(out.verdict, Verdict::Unsafe);
        assert_eq!(out.bound, 3, "k* should be 3");
        // Bounds 1 and 2 were unsat.
        assert_eq!(out.frames.len(), 3);
        assert_eq!(out.frames[0].verdict, Verdict::Safe);
        assert_eq!(out.frames[1].verdict, Verdict::Safe);
    }

    #[test]
    fn safe_up_to_bound() {
        let opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        let out = verify_bmc(&needs_three_iterations(), 2, &opts).unwrap();
        assert_eq!(out.verdict, Verdict::Safe);
        assert_eq!(out.bound, 2);
    }

    #[test]
    fn loop_free_programs_solve_once() {
        let p = ProgramBuilder::new("loopfree")
            .shared("x", 0)
            .main(vec![assign("x", c(1)), assert_(eq(v("x"), c(1)))])
            .build();
        let opts = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        let out = verify_bmc(&p, 6, &opts).unwrap();
        assert_eq!(out.verdict, Verdict::Safe);
        assert_eq!(
            out.frames.len(),
            1,
            "no duplicate instances for loop-free programs"
        );
    }

    #[test]
    fn budget_exhaustion_stops_the_sweep() {
        let inc = vec![
            lock("m"),
            assign("r", v("cnt")),
            assign("cnt", add(v("r"), c(1))),
            unlock("m"),
        ];
        let p = ProgramBuilder::new("hard")
            .shared("cnt", 0)
            .mutex("m")
            .thread("w1", inc.clone())
            .thread("w2", inc.clone())
            .thread("w3", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                spawn(3),
                join(1),
                join(2),
                join(3),
                assert_(eq(v("cnt"), c(3))),
            ])
            .build();
        let opts = VerifyOptions {
            max_conflicts: Some(1),
            ..VerifyOptions::new(MemoryModel::Sc, Strategy::Baseline)
        };
        let out = verify_bmc(&p, 6, &opts).unwrap();
        assert_eq!(out.verdict, Verdict::Unknown);
    }
}
