//! Tests of [`crate::check`] under the store-buffer models TSO and PSO.

#[cfg(test)]
mod tests {
    use crate::ast::build::*;
    use crate::ast::Program;
    use crate::flat::flatten;
    use crate::machine::{Limits, MemoryModel, Outcome};
    use crate::unroll::unroll_program;

    fn check(p: &Program, mm: MemoryModel) -> Outcome {
        let u = unroll_program(p, 3);
        crate::machine::check(&flatten(&u), mm, Limits::default())
    }

    /// SB (store buffering): W x / R y || W y / R x. Both reads zero is
    /// possible under TSO and PSO, impossible under SC.
    fn sb(with_fences: bool) -> Program {
        let t1 = if with_fences {
            vec![assign("x", c(1)), fence(), assign("r1", v("y"))]
        } else {
            vec![assign("x", c(1)), assign("r1", v("y"))]
        };
        let t2 = if with_fences {
            vec![assign("y", c(1)), fence(), assign("r2", v("x"))]
        } else {
            vec![assign("y", c(1)), assign("r2", v("x"))]
        };
        ProgramBuilder::new("sb")
            .shared("x", 0)
            .shared("y", 0)
            .shared("r1", 0)
            .shared("r2", 0)
            .thread("t1", t1)
            .thread("t2", t2)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(not(and(eq(v("r1"), c(0)), eq(v("r2"), c(0))))),
            ])
            .build()
    }

    #[test]
    fn sb_unsafe_under_tso_and_pso() {
        assert_eq!(check(&sb(false), MemoryModel::Tso), Outcome::Unsafe);
        assert_eq!(check(&sb(false), MemoryModel::Pso), Outcome::Unsafe);
    }

    #[test]
    fn sb_with_fences_safe_everywhere() {
        assert_eq!(check(&sb(true), MemoryModel::Tso), Outcome::Safe);
        assert_eq!(check(&sb(true), MemoryModel::Pso), Outcome::Safe);
    }

    /// MP (message passing): W data; W flag || R flag; R data.
    /// Safe under TSO (stores commit in order), unsafe under PSO.
    fn mp() -> Program {
        ProgramBuilder::new("mp")
            .shared("data", 0)
            .shared("flag", 0)
            .shared("seen", 0)
            .shared("val", 0)
            .thread(
                "producer",
                vec![assign("data", c(42)), assign("flag", c(1))],
            )
            .thread(
                "consumer",
                vec![assign("seen", v("flag")), assign("val", v("data"))],
            )
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(or(eq(v("seen"), c(0)), eq(v("val"), c(42)))),
            ])
            .build()
    }

    #[test]
    fn mp_safe_under_tso_unsafe_under_pso() {
        assert_eq!(check(&mp(), MemoryModel::Tso), Outcome::Safe);
        assert_eq!(check(&mp(), MemoryModel::Pso), Outcome::Unsafe);
    }

    #[test]
    fn mp_with_fence_safe_under_pso() {
        let p = ProgramBuilder::new("mp-f")
            .shared("data", 0)
            .shared("flag", 0)
            .shared("seen", 0)
            .shared("val", 0)
            .thread(
                "producer",
                vec![assign("data", c(42)), fence(), assign("flag", c(1))],
            )
            .thread(
                "consumer",
                vec![assign("seen", v("flag")), assign("val", v("data"))],
            )
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(or(eq(v("seen"), c(0)), eq(v("val"), c(42)))),
            ])
            .build();
        assert_eq!(check(&p, MemoryModel::Pso), Outcome::Safe);
    }

    /// Store forwarding: a thread always sees its own latest store.
    #[test]
    fn store_forwarding_within_thread() {
        let p = ProgramBuilder::new("fwd")
            .shared("x", 0)
            .shared("r", 0)
            .thread("t", vec![assign("x", c(7)), assign("r", v("x"))])
            .main(vec![spawn(1), join(1), assert_(eq(v("r"), c(7)))])
            .build();
        assert_eq!(check(&p, MemoryModel::Tso), Outcome::Safe);
        assert_eq!(check(&p, MemoryModel::Pso), Outcome::Safe);
    }

    /// Join drains the joined thread's buffer: main observes its writes.
    #[test]
    fn join_synchronizes_buffers() {
        let p = ProgramBuilder::new("join-sync")
            .shared("x", 0)
            .thread("t", vec![assign("x", c(9))])
            .main(vec![spawn(1), join(1), assert_(eq(v("x"), c(9)))])
            .build();
        assert_eq!(check(&p, MemoryModel::Tso), Outcome::Safe);
        assert_eq!(check(&p, MemoryModel::Pso), Outcome::Safe);
    }

    /// Locks drain buffers: mutual exclusion gives SC-like behaviour.
    #[test]
    fn locked_sections_are_sc_under_wmm() {
        let inc = vec![
            lock("m"),
            assign("r", v("cnt")),
            assign("cnt", add(v("r"), c(1))),
            unlock("m"),
        ];
        let p = ProgramBuilder::new("locked")
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
            .build();
        assert_eq!(check(&p, MemoryModel::Tso), Outcome::Safe);
        assert_eq!(check(&p, MemoryModel::Pso), Outcome::Safe);
    }

    /// 2+2W: W x=1; W y=2 || W y=1; W x=2 — both final values 1 requires
    /// write reordering: impossible under TSO (W→W kept), possible in PSO.
    #[test]
    fn two_plus_two_w() {
        let p = ProgramBuilder::new("2+2w")
            .shared("x", 0)
            .shared("y", 0)
            .thread("t1", vec![assign("x", c(1)), assign("y", c(2))])
            .thread("t2", vec![assign("y", c(1)), assign("x", c(2))])
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(not(and(eq(v("x"), c(1)), eq(v("y"), c(1))))),
            ])
            .build();
        assert_eq!(check(&p, MemoryModel::Tso), Outcome::Safe);
        assert_eq!(check(&p, MemoryModel::Pso), Outcome::Unsafe);
    }
}
