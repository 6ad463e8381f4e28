//! The `nondet` family: nondeterministic inputs with assume/assert.

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::harness_program;
use zpre_prog::build::*;
use zpre_prog::Stmt;

/// Single-threaded arithmetic over a nondet input: `x < bound` assumed,
/// assert `x·x + x ≠ target`. Safe iff no solution exists below the bound.
fn arith(width: u32, bound: u64, target: u64, safe: bool) -> Task {
    let name = format!("nondet/arith-w{width}-b{bound}-t{target}");
    let prog = ProgramBuilder::new(&name)
        .width(width)
        .shared("x", 0)
        .main(vec![
            assign("x", nondet("k")),
            assume(lt(v("x"), c(bound))),
            assert_(ne(add(mul(v("x"), v("x")), v("x")), c(target))),
        ])
        .build();
    let e = if safe {
        Expected::safe_all()
    } else {
        Expected::unsafe_all()
    };
    Task::new(&name, Subcat::Nondet, prog, 1, e)
}

/// Two workers add bounded nondet amounts under a lock; the sum is bounded
/// by the sum of the bounds. `slack = 0` is tight (safe); a negative slack
/// (checking a smaller bound) is violable.
fn bounded_sum(b1: u64, b2: u64, check: u64) -> Task {
    let name = format!("nondet/sum-{b1}-{b2}-le{check}");
    let worker = |w: usize, bound: u64| -> Vec<Stmt> {
        let amt = format!("amt{w}");
        let r = format!("r{w}");
        vec![
            assign(&amt, nondet(&format!("n{w}"))),
            assume(le(v(&amt), c(bound))),
            lock("m"),
            assign(&r, v("total")),
            assign("total", add(v(&r), v(&amt))),
            unlock("m"),
        ]
    };
    let prog = harness_program(
        &name,
        4,
        &[("total", 0)],
        &["m"],
        vec![
            ("w0".to_string(), worker(0, b1)),
            ("w1".to_string(), worker(1, b2)),
        ],
        le(v("total"), c(check)),
    );
    let e = if b1 + b2 <= check {
        Expected::safe_all()
    } else {
        Expected::unsafe_all()
    };
    Task::new(&name, Subcat::Nondet, prog, 1, e)
}

/// A nondet Boolean selects which of two threads wrote last; the assertion
/// accepts both outcomes (safe) or only one (unsafe).
fn selector(accept_both: bool) -> Task {
    let name = format!(
        "nondet/selector-{}",
        if accept_both { "both" } else { "one" }
    );
    let t1 = vec![when(nondet_bool("go1"), vec![assign("x", c(1))])];
    let t2 = vec![assign("x", c(2))];
    let property = if accept_both {
        or(or(eq(v("x"), c(0)), eq(v("x"), c(1))), eq(v("x"), c(2)))
    } else {
        eq(v("x"), c(2))
    };
    let prog = harness_program(
        &name,
        4,
        &[("x", 0)],
        &[],
        vec![("t1".to_string(), t1), ("t2".to_string(), t2)],
        property,
    );
    let e = if accept_both {
        Expected::safe_all()
    } else {
        Expected::unsafe_all()
    };
    Task::new(&name, Subcat::Nondet, prog, 1, e)
}

/// All `nondet` tasks.
pub fn tasks(scale: Scale) -> Vec<Task> {
    // x² + x over width 4 (mod 16): x=3 → 12; no x<3 hits 12.
    match scale {
        Scale::Quick => vec![arith(4, 4, 12, false), arith(4, 3, 12, true)],
        Scale::Full => vec![
            arith(4, 4, 12, false),
            arith(4, 3, 12, true),
            arith(8, 10, 90, false), // x=9 → 90
            arith(8, 9, 90, true),
            bounded_sum(3, 3, 6),
            bounded_sum(3, 3, 5),
            bounded_sum(2, 3, 5),
            selector(true),
            selector(false),
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
    fn oracle_agrees_on_narrow_instances() {
        use zpre_prog::{check, Limits, MemoryModel, Outcome};
        for t in [
            arith(4, 4, 12, false),
            arith(4, 3, 12, true),
            bounded_sum(3, 3, 6),
            bounded_sum(3, 3, 5),
            selector(true),
            selector(false),
        ] {
            let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
            let fp = zpre_prog::flatten(&u);
            let got = check(&fp, MemoryModel::Sc, Limits::default());
            assert_eq!(got == Outcome::Safe, t.expected.sc.unwrap(), "{}", t.name);
        }
    }
}
