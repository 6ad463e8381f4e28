//! The `lit` family: classic mutual-exclusion algorithms from the
//! literature (Peterson, Dekker), plain and fenced.
//!
//! Both algorithms guarantee mutual exclusion under SC but are broken by
//! store buffering (the flag write may be delayed past the other thread's
//! flag read), so the plain variants are unsafe under TSO and PSO — the
//! classic motivating example for fence synthesis.

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::harness_program;
use zpre_prog::build::*;
use zpre_prog::Stmt;

/// Critical section body: a read-increment-write on `cnt`, done `work`
/// times. If mutual exclusion holds the final counter is exact.
fn cs_body(thread: usize, work: usize) -> Vec<Stmt> {
    let mut stmts = Vec::new();
    for i in 0..work {
        let r = format!("c{thread}_{i}");
        stmts.push(assign(&r, v("cnt")));
        stmts.push(assign("cnt", add(v(&r), c(1))));
    }
    stmts
}

/// Peterson's algorithm for two threads.
fn peterson(fenced: bool, work: usize) -> Task {
    let name = format!("lit/peterson{}-w{work}", if fenced { "-fence" } else { "" });
    let mk = |me: usize| -> Vec<Stmt> {
        let other = 1 - me;
        let (fme, fother) = (format!("flag{me}"), format!("flag{other}"));
        let spin = format!("s{me}");
        let mut body = vec![assign(&fme, c(1))];
        if fenced {
            body.push(fence());
        }
        body.push(assign("turn", c(other as u64)));
        if fenced {
            body.push(fence());
        }
        // while (flag[other] == 1 && turn == other) {}
        body.push(assign(&spin, c(1)));
        body.push(while_(
            eq(v(&spin), c(1)),
            vec![if_(
                and(eq(v(&fother), c(1)), eq(v("turn"), c(other as u64))),
                vec![Stmt::Skip],
                vec![assign(&spin, c(0))],
            )],
        ));
        body.extend(cs_body(me, work));
        if fenced {
            // Release fence: the CS writes must commit before the flag drop
            // (PSO would otherwise reorder them).
            body.push(fence());
        }
        body.push(assign(&fme, c(0)));
        body
    };
    let total = (2 * work) as u64;
    let prog = harness_program(
        &name,
        8,
        &[("flag0", 0), ("flag1", 0), ("turn", 0), ("cnt", 0)],
        &[],
        vec![("p0".to_string(), mk(0)), ("p1".to_string(), mk(1))],
        eq(v("cnt"), c(total)),
    );
    let expected = if fenced {
        Expected::safe_all()
    } else {
        Expected::of(true, false, false)
    };
    Task::new(&name, Subcat::Lit, prog, 2, expected)
}

/// Dekker's algorithm (first software mutual exclusion), simplified to the
/// bounded-entry form used in SV-COMP.
fn dekker(fenced: bool, work: usize) -> Task {
    let name = format!("lit/dekker{}-w{work}", if fenced { "-fence" } else { "" });
    let mk = |me: usize| -> Vec<Stmt> {
        let other = 1 - me;
        let (fme, fother) = (format!("want{me}"), format!("want{other}"));
        let spin = format!("s{me}");
        let mut body = vec![assign(&fme, c(1))];
        if fenced {
            body.push(fence());
        }
        // while (want[other]) { if (turn != me) { want[me]=0; wait turn; want[me]=1; } }
        body.push(assign(&spin, v(&fother)));
        body.push(while_(
            eq(v(&spin), c(1)),
            vec![
                if_(
                    ne(v("turn"), c(me as u64)),
                    {
                        let mut retry = vec![
                            assign(&fme, c(0)),
                            assign(&spin, ite(eq(v("turn"), c(me as u64)), c(0), c(1))),
                            assign(&fme, c(1)),
                        ];
                        if fenced {
                            retry.push(fence());
                        }
                        retry
                    },
                    vec![],
                ),
                assign(&spin, v(&fother)),
            ],
        ));
        body.extend(cs_body(me, work));
        if fenced {
            body.push(fence());
        }
        body.push(assign("turn", c(other as u64)));
        body.push(assign(&fme, c(0)));
        body
    };
    let total = (2 * work) as u64;
    let prog = harness_program(
        &name,
        8,
        &[("want0", 0), ("want1", 0), ("turn", 0), ("cnt", 0)],
        &[],
        vec![("d0".to_string(), mk(0)), ("d1".to_string(), mk(1))],
        eq(v("cnt"), c(total)),
    );
    let expected = if fenced {
        Expected::safe_all()
    } else {
        Expected::of(true, false, false)
    };
    Task::new(&name, Subcat::Lit, prog, 2, expected)
}

/// All `lit` tasks.
pub fn tasks(scale: Scale) -> Vec<Task> {
    match scale {
        Scale::Quick => vec![peterson(false, 1), peterson(true, 1)],
        Scale::Full => vec![
            peterson(false, 1),
            peterson(true, 1),
            peterson(false, 2),
            peterson(true, 2),
            peterson(false, 3),
            peterson(true, 3),
            dekker(false, 1),
            dekker(true, 1),
            dekker(false, 2),
            dekker(true, 2),
            dekker(false, 3),
            dekker(true, 3),
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

    /// Peterson/Dekker verdicts (safe under SC, broken plain / repaired by
    /// fences under TSO+PSO) — checked against the operational models.
    #[test]
    fn verdicts_match_operational_models() {
        use zpre_prog::{check, Limits, MemoryModel, Outcome};
        let lim = Limits {
            max_states: 50_000_000,
        };
        for t in [
            peterson(false, 1),
            peterson(true, 1),
            dekker(false, 1),
            dekker(true, 1),
        ] {
            let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
            let fp = zpre_prog::flatten(&u);
            for mm in MemoryModel::ALL {
                let got = check(&fp, mm, lim);
                assert_ne!(got, Outcome::ResourceLimit, "{} {mm}", t.name);
                assert_eq!(
                    got == Outcome::Safe,
                    t.expected.get(mm).unwrap(),
                    "{} {mm}",
                    t.name
                );
            }
        }
    }
}
