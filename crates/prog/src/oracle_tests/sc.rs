//! Tests of [`crate::check`] under sequential consistency.

#[cfg(test)]
mod tests {
    use crate::ast::build::*;
    use crate::flat::flatten;
    use crate::machine::{Limits, MemoryModel, Outcome};
    use crate::unroll::unroll_program;

    fn sc(fp: &crate::flat::FlatProgram) -> Outcome {
        crate::machine::check(fp, MemoryModel::Sc, Limits::default())
    }

    fn check(p: &crate::ast::Program) -> Outcome {
        sc(&flatten(&unroll_program(p, 4)))
    }

    #[test]
    fn sequential_assert_holds() {
        let p = ProgramBuilder::new("seq")
            .shared("x", 0)
            .main(vec![assign("x", c(5)), assert_(eq(v("x"), c(5)))])
            .build();
        assert_eq!(check(&p), Outcome::Safe);
    }

    #[test]
    fn sequential_assert_fails() {
        let p = ProgramBuilder::new("seq-bad")
            .shared("x", 0)
            .main(vec![assign("x", c(5)), assert_(eq(v("x"), c(6)))])
            .build();
        assert_eq!(check(&p), Outcome::Unsafe);
    }

    /// The paper's running example (Fig. 2): two threads incrementing each
    /// other's variable; `m == 0 && n == 0` is unreachable under SC.
    #[test]
    fn paper_example_is_safe_under_sc() {
        // m and n must be shared so main can observe them in the assertion.
        let p = ProgramBuilder::new("fig2")
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
        assert_eq!(check(&p), Outcome::Safe);
    }

    /// Unprotected counter increments race: final value can be 1.
    #[test]
    fn racy_increment_is_unsafe() {
        let inc = vec![assign("r", v("c")), assign("c", add(v("r"), c(1)))];
        let p = ProgramBuilder::new("race")
            .shared("c", 0)
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("c"), c(2))),
            ])
            .build();
        assert_eq!(check(&p), Outcome::Unsafe);
    }

    /// The same counter protected by a mutex is safe.
    #[test]
    fn locked_increment_is_safe() {
        let inc = vec![
            lock("m"),
            assign("r", v("c")),
            assign("c", add(v("r"), c(1))),
            unlock("m"),
        ];
        let p = ProgramBuilder::new("locked")
            .shared("c", 0)
            .mutex("m")
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("c"), c(2))),
            ])
            .build();
        assert_eq!(check(&p), Outcome::Safe);
    }

    /// Atomic sections restore atomicity like locks do.
    #[test]
    fn atomic_increment_is_safe() {
        let mut body = atomic(vec![assign("r", v("c")), assign("c", add(v("r"), c(1)))]);
        let mut body2 = body.clone();
        let p = ProgramBuilder::new("atomic")
            .shared("c", 0)
            .thread("w1", std::mem::take(&mut body))
            .thread("w2", std::mem::take(&mut body2))
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("c"), c(2))),
            ])
            .build();
        assert_eq!(check(&p), Outcome::Safe);
    }

    /// Store-buffering litmus: under SC, both registers zero is impossible.
    #[test]
    fn store_buffering_safe_under_sc() {
        let p = ProgramBuilder::new("sb")
            .shared("x", 0)
            .shared("y", 0)
            .shared("r1", 0)
            .shared("r2", 0)
            .thread("t1", vec![assign("x", c(1)), assign("r1", v("y"))])
            .thread("t2", vec![assign("y", c(1)), assign("r2", v("x"))])
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(not(and(eq(v("r1"), c(0)), eq(v("r2"), c(0))))),
            ])
            .build();
        assert_eq!(check(&p), Outcome::Safe);
    }

    /// Nondeterministic input: assert can fail for some value.
    #[test]
    fn nondet_violation_found() {
        let p = ProgramBuilder::new("nd")
            .width(3)
            .shared("x", 0)
            .main(vec![
                assign("x", nondet("n")),
                assume(lt(v("x"), c(5))),
                assert_(ne(v("x"), c(3))),
            ])
            .build();
        assert_eq!(check(&p), Outcome::Unsafe);
    }

    /// The assumption excludes the violating value.
    #[test]
    fn assume_prunes_violation() {
        let p = ProgramBuilder::new("nd2")
            .width(3)
            .shared("x", 0)
            .main(vec![
                assign("x", nondet("n")),
                assume(lt(v("x"), c(3))),
                assert_(ne(v("x"), c(5))),
            ])
            .build();
        assert_eq!(check(&p), Outcome::Safe);
    }

    /// Loop with unrolling: counting to 3 then asserting equals 3.
    #[test]
    fn unrolled_loop_counts() {
        let p = ProgramBuilder::new("loop")
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(eq(v("x"), c(3))),
            ])
            .build();
        assert_eq!(check(&p), Outcome::Safe);
    }

    /// Insufficient unroll bound: the unwinding assumption prunes all
    /// executions, so nothing is reported (vacuously safe).
    #[test]
    fn short_unroll_is_vacuously_safe() {
        let p = ProgramBuilder::new("loop")
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(eq(v("x"), c(99))),
            ])
            .build();
        let u = unroll_program(&p, 1);
        assert_eq!(sc(&flatten(&u)), Outcome::Safe);
        // With a sufficient bound the violation shows.
        let u3 = unroll_program(&p, 3);
        assert_eq!(sc(&flatten(&u3)), Outcome::Unsafe);
    }

    #[test]
    fn state_limit_reported() {
        let p = ProgramBuilder::new("big")
            .width(8)
            .shared("x", 0)
            .main(vec![assign("x", nondet("n")), assert_(lt(v("x"), c(255)))])
            .build();
        // width 8 > MAX_HAVOC_WIDTH 4
        let u = unroll_program(&p, 1);
        assert_eq!(sc(&flatten(&u)), Outcome::ResourceLimit);
    }
}
